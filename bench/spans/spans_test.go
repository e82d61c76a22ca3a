package spans

import (
	"context"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

// Two crawl workers' calls overlap under one Build span; covered time
// is their union, clipped to the parent, and a grandchild counts only
// against its own parent.
func TestSelfTimesOverlappingChildren(t *testing.T) {
	all := []Span{
		{Name: "build", ID: 1, Start: 0, End: 100},
		{Name: "txlist", ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "txlist", ID: 3, Parent: 1, Start: 30, End: 60},
		{Name: "txlist", ID: 4, Parent: 1, Start: 35, End: 45},  // inside 2 and 3
		{Name: "events", ID: 5, Parent: 1, Start: 90, End: 120}, // runs past the parent
		{Name: "decode", ID: 6, Parent: 3, Start: 50, End: 55},
		{Name: "other", ID: 7, Start: 200, End: 210},
	}
	got := SelfTimes(all)
	want := map[uint64]time.Duration{
		1: 100 - 50 - 10, // [10,60) and [90,100) covered
		2: 30,
		3: 30 - 5,
		4: 10,
		5: 30,
		6: 5,
		7: 10,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SelfTimes = %v, want %v", got, want)
	}
}

func TestCoveredDisjointAndTouching(t *testing.T) {
	for _, tc := range []struct {
		ivs  [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{0, 10}, {10, 20}}, 20},
		{[][2]int64{{5, 8}, {0, 2}}, 5},
		{[][2]int64{{-10, 5}}, 5},
		{[][2]int64{{0, 50}, {10, 20}}, 40},
	} {
		if got := covered(0, 40, tc.ivs); got != tc.want {
			t.Errorf("covered(0, 40, %v) = %d, want %d", tc.ivs, got, tc.want)
		}
	}
}

func TestRecorderRoundTrip(t *testing.T) {
	r := NewRecorder()
	root := r.Start("pass", 0, 0)
	ctx := WithParent(context.Background(), root.ID())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.Start("call", ParentOf(ctx), root.ID()).End()
		}()
	}
	wg.Wait()
	root.End()
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, r.Spans()) || len(back) != 9 {
		t.Fatalf("read back %d spans, differing from the %d recorded", len(back), len(r.Spans()))
	}
	for _, s := range back {
		if s.Name == "call" && (s.Parent != root.ID() || s.Req != root.ID()) {
			t.Errorf("call span %+v not under root %d", s, root.ID())
		}
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *Recorder
	sp := r.Start("x", 0, 0)
	sp.End()
	if sp.ID() != 0 || r.NewID() != 0 || r.Spans() != nil {
		t.Fatal("a nil recorder must be inert")
	}
}
