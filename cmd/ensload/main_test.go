package main

import (
	"bytes"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"ensdropcatch/internal/obs"
)

func testPlanConfig(seed int64) planConfig {
	return planConfig{seed: seed, rps: 50, duration: 5 * time.Second,
		burstFactor: 3, burstProb: 0.2, zipfS: 1.3}
}

// The whole point of the generator: one seed, one schedule.
func TestScheduleDeterministic(t *testing.T) {
	tg := synthesize(100)
	a := buildSchedule(testPlanConfig(7), tg)
	b := buildSchedule(testPlanConfig(7), tg)
	if len(a) == 0 {
		t.Fatal("empty schedule")
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
	c := buildSchedule(testPlanConfig(8), tg)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestScheduleMixAndBursts(t *testing.T) {
	tg := synthesize(100)
	cfg := testPlanConfig(1)
	cfg.duration = 60 * time.Second
	plans := buildSchedule(cfg, tg)
	counts := map[string]int{}
	for _, p := range plans {
		counts[p.route]++
		if p.due < 0 || p.due >= cfg.duration {
			t.Fatalf("due %v outside schedule", p.due)
		}
	}
	total := len(plans)
	// The mix is drawn per request, so allow generous slack around the
	// nominal 40/25/20/10/5 split.
	for route, want := range map[string]float64{
		routeSubgraph: 0.40, routeEtherscan: 0.25, routeOpenSea: 0.20,
		routeRPC: 0.10, routeHealthz: 0.05,
	} {
		got := float64(counts[route]) / float64(total)
		if got < want*0.6 || got > want*1.5 {
			t.Errorf("route %s: %.3f of mix, want near %.2f", route, got, want)
		}
	}
	// Burst seconds fire more than the baseline: with burstProb 0.2 over
	// 60s, at least one burst second is overwhelmingly likely.
	perSecond := map[int]int{}
	for _, p := range plans {
		perSecond[int(p.due/time.Second)]++
	}
	burst := 0
	for _, n := range perSecond {
		if float64(n) > cfg.rps*1.5 {
			burst++
		}
	}
	if burst == 0 {
		t.Error("no burst seconds in 60s schedule")
	}
	if total <= int(cfg.rps)*60 {
		t.Errorf("total %d not above baseline %d despite bursts", total, int(cfg.rps)*60)
	}
}

func TestSynthesizeShapes(t *testing.T) {
	tg := synthesize(10)
	if len(tg.ids) != 10 || len(tg.addrs) != 10 {
		t.Fatalf("pool sizes: %d ids, %d addrs", len(tg.ids), len(tg.addrs))
	}
	for i := range tg.ids {
		if len(tg.ids[i]) != 66 || !strings.HasPrefix(tg.ids[i], "0x") {
			t.Errorf("id %q not a 32-byte hex hash", tg.ids[i])
		}
		if len(tg.addrs[i]) != 42 || !strings.HasPrefix(tg.addrs[i], "0x") {
			t.Errorf("addr %q not a 20-byte hex address", tg.addrs[i])
		}
	}
}

// writeBench output must parse as go-bench lines the way cmd/benchjson
// does: name, iteration count, then value/unit pairs.
func TestBenchOutputParseable(t *testing.T) {
	st := &routeStats{}
	for i := 0; i < 100; i++ {
		st.observe(200, time.Duration(i+1)*time.Millisecond, false)
	}
	st.observe(503, 0, false)
	st.observe(404, 0, false)
	var buf bytes.Buffer
	writeBench(&buf, []summary{st.summarize(routeSubgraph, 10*time.Second)}, 3)
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 2 {
			t.Fatalf("short bench line: %q", line)
		}
		if !strings.HasPrefix(fields[0], "BenchmarkLoad/") {
			t.Fatalf("bad name: %q", fields[0])
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			t.Fatalf("iteration count %q: %v", fields[1], err)
		}
		if (len(fields)-2)%2 != 0 {
			t.Fatalf("odd value/unit tail: %q", line)
		}
		for i := 2; i < len(fields); i += 2 {
			if _, err := strconv.ParseFloat(fields[i], 64); err != nil {
				t.Fatalf("value %q in %q: %v", fields[i], line, err)
			}
		}
	}
	out := buf.String()
	for _, unit := range []string{"ns/op", "p50_ns", "p99_ns", "p999_ns", "shed_rate", "error_rate", "rps", "local_drops"} {
		if !strings.Contains(out, unit) {
			t.Errorf("missing unit %q in output:\n%s", unit, out)
		}
	}
}

func TestRouteStatsClasses(t *testing.T) {
	st := &routeStats{}
	st.observe(200, time.Millisecond, false)
	st.observe(304, time.Millisecond, false)
	st.observe(429, 0, false)
	st.observe(503, 0, false)
	st.observe(500, 0, false)
	st.observe(404, 0, false)
	st.observe(0, 0, true)
	s := st.summarize("x", time.Second)
	if s.ok != 2 || s.shed != 2 || s.e5 != 1 || s.e4 != 1 || s.tr != 1 {
		t.Fatalf("classes: %+v", s)
	}
	if s.g5x != 2 { // the 503 shed and the 500 both count for -assert-no-5xx
		t.Fatalf("gate5xx = %d, want 2", s.g5x)
	}
	if s.completed() != 7 {
		t.Fatalf("completed = %d", s.completed())
	}
	if got := s.shedRate(); got != 2.0/7.0 {
		t.Fatalf("shedRate = %v", got)
	}
	if got := s.errorRate(); got != 3.0/7.0 {
		t.Fatalf("errorRate = %v", got)
	}
}

// End-to-end: a short self-hosted open-loop run completes, reports every
// route, and passes its own assert gates.
func TestRunSelfhostSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spins a world and a 2s load run")
	}
	// A per-key refusal is an HTTP 200 the report counts as ok, so it is
	// read from the quota's own counter.
	refused := obs.Default.CounterVec("overload_quota_denied_total", "", "client").With("ensload")
	before := refused.Value()
	var out, errb bytes.Buffer
	code := run([]string{
		"-selfhost", "-domains", "200", "-world-seed", "3",
		"-rps", "40", "-duration", "2s", "-clients", "4", "-seed", "11",
		"-assert-no-5xx",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if n := refused.Value() - before; n != 0 {
		t.Errorf("%d Etherscan requests refused by the per-key limit, want 0", n)
	}
	for _, route := range append(append([]string{}, dataRoutes...), routeHealthz) {
		if !strings.Contains(out.String(), "BenchmarkLoad/"+route+" ") {
			t.Errorf("no bench line for %s:\n%s", route, out.String())
		}
	}
	if !strings.Contains(out.String(), "BenchmarkLoad/total ") {
		t.Error("no total line")
	}
}

func TestRunAssertP99Fails(t *testing.T) {
	if testing.Short() {
		t.Skip("spins a world and a 1s load run")
	}
	var out, errb bytes.Buffer
	code := run([]string{
		"-selfhost", "-domains", "100",
		"-rps", "20", "-duration", "1s", "-clients", "2",
		"-assert-p99", "1ns", // nothing real answers in a nanosecond
	}, &out, &errb)
	if code == 0 {
		t.Fatalf("want non-zero exit\nstderr:\n%s", errb.String())
	}
	if !strings.Contains(errb.String(), "ASSERT FAILED") {
		t.Fatalf("no assert diagnostic:\n%s", errb.String())
	}
}

// Every request to a closed port fails in transport, so no answer is
// there for the p99 or 5xx gate to read; an asserted run must still
// fail.
func TestRunAssertFailsWhenNothingAnswers(t *testing.T) {
	if testing.Short() {
		t.Skip("a 1s load run")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	target := "http://" + ln.Addr().String()
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	code := run([]string{
		"-target", target, "-rps", "20", "-duration", "1s", "-clients", "2",
		"-assert-p99", "250ms", "-assert-no-5xx",
	}, &out, &errb)
	if code == 0 {
		t.Fatalf("want non-zero exit\nstderr:\n%s", errb.String())
	}
	for _, want := range []string{"transport errors", "no successful answer"} {
		if !strings.Contains(errb.String(), want) {
			t.Errorf("no %q diagnostic:\n%s", want, errb.String())
		}
	}
}

func TestRunBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-zipf-s", "0.5"}, &out, &errb); code != 2 {
		t.Fatalf("zipf-s guard: exit %d", code)
	}
	if code := run([]string{"-no-such-flag"}, &out, &errb); code != 2 {
		t.Fatalf("flag parse: exit %d", code)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	var sorted []time.Duration
	for i := 1; i <= 100; i++ {
		sorted = append(sorted, time.Duration(i))
	}
	if q := quantile(sorted, 0.5); q != 50 {
		t.Errorf("p50 = %d", q)
	}
	if q := quantile(sorted, 0.99); q != 99 {
		t.Errorf("p99 = %d", q)
	}
	if q := quantile(sorted, 1); q != 100 {
		t.Errorf("p100 = %d", q)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Errorf("empty = %d", q)
	}
}
