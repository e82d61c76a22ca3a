package ensdropcatch

// Command-line smoke tests: build the binaries once and drive them the way
// a user would, including the full ensworld -> enscrawl -> ensanalyze
// hand-off over a real socket.

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildTool compiles a command into dir and returns the binary path.
func buildTool(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build %s: %v\n%s", name, err, out)
	}
	return bin
}

func TestEnspremiumCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	bin := buildTool(t, dir, "enspremium")

	out, err := exec.Command(bin, "-expiry", "2023-01-15", "-label", "gold", "-step", "72").CombinedOutput()
	if err != nil {
		t.Fatalf("enspremium: %v\n%s", err, out)
	}
	text := string(out)
	for _, want := range []string{"gold.eth", "2023-04-15", "premium", "ETH"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
	// Missing flag is a usage error.
	if err := exec.Command(bin).Run(); err == nil {
		t.Error("enspremium without -expiry succeeded")
	}
}

func TestEnsanalyzeCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	bin := buildTool(t, dir, "ensanalyze")

	out, err := exec.Command(bin, "-domains", "600", "-seed", "2", "-csv", filepath.Join(dir, "csv")).CombinedOutput()
	if err != nil {
		t.Fatalf("ensanalyze: %v\n%s", err, out)
	}
	text := string(out)
	for _, want := range []string{
		"Figure 2", "Figure 3", "Figure 4", "Figure 5", "Figure 6",
		"Table 1", "Table 2", "Resale market", "Financial losses",
		"resolution logs",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing section %q", want)
		}
	}
	for _, f := range []string{"figure2_monthly.csv", "figure6_income.csv", "figure9_scatter.csv"} {
		if _, err := os.Stat(filepath.Join(dir, "csv", f)); err != nil {
			t.Errorf("CSV %s not written: %v", f, err)
		}
	}
}

func TestWorldCrawlAnalyzePipelineCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and serves sockets")
	}
	dir := t.TempDir()
	worldBin := buildTool(t, dir, "ensworld")
	crawlBin := buildTool(t, dir, "enscrawl")
	analyzeBin := buildTool(t, dir, "ensanalyze")

	addr := freeAddr(t)
	server := exec.Command(worldBin, "-domains", "500", "-listen", addr, "-etherscan-rate", "1000000")
	server.Stderr = os.Stderr
	if err := server.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		server.Process.Kill()
		server.Wait()
	}()

	// Wait for the listener.
	deadline := time.Now().Add(60 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			conn.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("ensworld never started listening")
		}
		time.Sleep(200 * time.Millisecond)
	}

	dataDir := filepath.Join(dir, "data")
	crawl := exec.Command(crawlBin,
		"-base", "http://"+addr,
		"-out", dataDir,
		"-rps", "0",
		"-resume", filepath.Join(dir, "resume"))
	if out, err := crawl.CombinedOutput(); err != nil {
		t.Fatalf("enscrawl: %v\n%s", err, out)
	}
	if _, err := os.Stat(filepath.Join(dataDir, "dataset.bin")); err != nil {
		t.Fatalf("dataset not written: %v", err)
	}

	out, err := exec.Command(analyzeBin, "-data", dataDir).CombinedOutput()
	if err != nil {
		t.Fatalf("ensanalyze -data: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "re-registered (dropcaught)") {
		t.Errorf("analysis over crawled data missing population table:\n%.1000s", out)
	}
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return fmt.Sprintf("127.0.0.1:%d", l.Addr().(*net.TCPAddr).Port)
}
