package obs

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestRegisterDebugServesMetricsAndProfiles(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("debug_smoke_total", "smoke").Inc()
	mux := http.NewServeMux()
	RegisterDebug(mux, reg)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	for path, want := range map[string]string{
		"/metrics":             "debug_smoke_total 1",
		"/debug/pprof/":        "goroutine",
		"/debug/vars":          "memstats",
		"/debug/pprof/cmdline": "",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body := make([]byte, 1<<20)
		n, _ := resp.Body.Read(body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		if want != "" && !strings.Contains(string(body[:n]), want) {
			t.Errorf("GET %s: body missing %q", path, want)
		}
	}
}
