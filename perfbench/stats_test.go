package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"semblock/internal/record"
)

func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		ppt  int
		ok   bool
		name string
	}{
		{n: 99, ok: false},
		{n: 100, ppt: 900, ok: true, name: "p90"},
		{n: 999, ppt: 900, ok: true, name: "p90"},
		{n: 1000, ppt: 990, ok: true, name: "p99"},
		{n: 9999, ppt: 990, ok: true, name: "p99"},
		{n: 10000, ppt: 999, ok: true, name: "p99.9"},
		{n: 2_000_000, ppt: 999, ok: true, name: "p99.9"},
	} {
		ppt, ok := tailPPT(tc.n)
		if ok != tc.ok || ppt != tc.ppt {
			t.Errorf("tailPPT(%d) = %d, %v; want %d, %v", tc.n, ppt, ok, tc.ppt, tc.ok)
			continue
		}
		if ok {
			if got := percentileName(ppt); got != tc.name {
				t.Errorf("tailPPT(%d) named %s, want %s", tc.n, got, tc.name)
			}
			if b := beyond(tc.n, ppt); b < minBeyond {
				t.Errorf("n=%d %s: %d samples beyond, want >= %d", tc.n, tc.name, b, minBeyond)
			}
		}
	}
	// The chosen percentile's value: 100 samples 1..100 ms, p90 is the
	// 90th, with exactly ten samples beyond it.
	var s samples
	for i := 100; i >= 1; i-- {
		s = append(s, float64(i))
	}
	tl := s.tail(900)
	if tl.value != 90 || !tl.ruled {
		t.Errorf("p90 of 1..100 = %v (ruled %v), want 90 (ruled)", tl.value, tl.ruled)
	}
	if tl := s.tail(990); tl.value != 99 || tl.ruled {
		t.Errorf("p99 of 1..100 = %v (ruled %v), want 99, flagged as under-sampled", tl.value, tl.ruled)
	}
	if tl := s.tail(pptMax); tl.value != 100 || !tl.ruled {
		t.Errorf("max of 1..100 = %v, want 100", tl.value)
	}
}

// TestWindowedTail: the tail is the median of the windows' tails, so one
// noisy window does not move it, and the minBeyond rule applies per window.
func TestWindowedTail(t *testing.T) {
	var s samples
	for _, scale := range []float64{1, 10, 2} { // the middle window is a burst
		for i := 1; i <= 1000; i++ {
			s = append(s, float64(i)*scale)
		}
	}
	got := s.windowedTail(990, 3)
	if got.value != 1980 || got.n != 1000 || !got.ruled {
		t.Errorf("windowed p99 = %+v, want the third window's 1980 over 1000 samples, ruled", got)
	}
	if short := s[:2999].windowedTail(990, 3); short.ruled {
		t.Errorf("999-sample windows have 9 samples beyond p99, yet ruled: %+v", short)
	}
	for _, w := range []int{0, 1} { // an unset window count is one window
		if one, plain := s.windowedTail(990, w), s.tail(990); one != plain || plain.value != s.sorted().at(990) {
			t.Errorf("%d windows: %+v differs from the plain tail %+v", w, one, plain)
		}
	}
}

func TestParsePercentile(t *testing.T) {
	for in, want := range map[string]int{"p90": 900, "p99": 990, "p99.9": 999, "max": pptMax} {
		got, err := parsePercentile(in)
		if err != nil || got != want {
			t.Errorf("parsePercentile(%q) = %d, %v; want %d", in, got, err, want)
		}
		if name := percentileName(got); name != in {
			t.Errorf("percentileName(%d) = %q, want %q", got, name, in)
		}
	}
	for _, bad := range []string{"", "90", "p0", "p100", "pX", "median"} {
		if _, err := parsePercentile(bad); err == nil {
			t.Errorf("parsePercentile(%q) accepted", bad)
		}
	}
}

// fakeClock advances only when told to: sleeping jumps to the wake time,
// and a send advances by the duration the test gives it.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	t0 := time.Unix(1000, 0)
	clk := &fakeClock{now: t0}
	every := 10 * time.Millisecond
	// Request 1 stalls for 35 ms; the others take 2 ms.
	cost := []time.Duration{2, 35, 2, 2, 2, 2}
	ts := runOpenLoop(clk, schedule{start: t0, every: every}, len(cost), func(i int) error {
		clk.now = clk.now.Add(cost[i] * time.Millisecond)
		return nil
	}, nil)
	if len(ts) != len(cost) {
		t.Fatalf("%d timings, want %d", len(ts), len(cost))
	}
	// Request 1 is sent at 10 ms and answered at 45 ms. Requests 2-4 were
	// due at 20, 30 and 40 ms but go out only after it, back to back.
	wantLate := []time.Duration{0, 0, 25, 17, 9, 1}
	wantLat := []time.Duration{2, 35, 27, 19, 11, 3}
	for i, tm := range ts {
		if tm.due != t0.Add(time.Duration(i)*every) {
			t.Errorf("request %d due %v, want %v", i, tm.due.Sub(t0), time.Duration(i)*every)
		}
		if got := tm.late(); got != wantLate[i]*time.Millisecond {
			t.Errorf("request %d late %v, want %v", i, got, wantLate[i]*time.Millisecond)
		}
		if got := tm.latency(); got != wantLat[i]*time.Millisecond {
			t.Errorf("request %d latency %v, want %v (from due time, stall included)", i, got, wantLat[i]*time.Millisecond)
		}
	}
	var late samples
	for _, tm := range ts {
		late = append(late, ms(tm.late()))
	}
	if got := late.sorted().at(pptMax); got != 25 {
		t.Errorf("worst lateness %v ms, want 25", got)
	}
}

// TestOpenLoopFollowUpUntimed: the drain that follows an ingest is not
// part of the ingest's latency, but when it overruns the next send is late.
func TestOpenLoopFollowUpUntimed(t *testing.T) {
	t0 := time.Unix(1000, 0)
	clk := &fakeClock{now: t0}
	step := func(d time.Duration) func(int) error {
		return func(int) error { clk.now = clk.now.Add(d); return nil }
	}
	ts := runOpenLoop(clk, schedule{start: t0, every: 10 * time.Millisecond}, 3, step(2*time.Millisecond), step(12*time.Millisecond))
	wantLate := []time.Duration{0, 4 * time.Millisecond, 8 * time.Millisecond}
	for i, tm := range ts {
		if got := tm.latency(); got != wantLate[i]+2*time.Millisecond {
			t.Errorf("request %d latency %v, want %v", i, got, wantLate[i]+2*time.Millisecond)
		}
		if got := tm.late(); got != wantLate[i] {
			t.Errorf("request %d late %v, want %v", i, got, wantLate[i])
		}
	}
}

func TestPairLatencyAttribution(t *testing.T) {
	// Batches of 3, 2 and 4 records after 5 preloaded ones: IDs 5-7, 8-9,
	// 10-13.
	bc := newBatchClock([]int{3, 2, 4}, 5)
	t0 := time.Unix(50, 0)
	for b := 0; b < 3; b++ {
		bc.stamp(b, t0.Add(time.Duration(b)*time.Second))
	}
	for _, tc := range []struct {
		a, b  record.ID
		batch int
	}{
		{0, 5, 0}, {5, 7, 0}, {7, 8, 1}, {2, 9, 1}, {9, 10, 2}, {13, 12, 2},
	} {
		p := record.MakePair(tc.a, tc.b)
		o, ok := bc.originOf(p)
		if !ok || !o.Equal(t0.Add(time.Duration(tc.batch)*time.Second)) {
			t.Errorf("pair (%d,%d): origin %v ok=%v, want batch %d", tc.a, tc.b, o.Sub(t0), ok, tc.batch)
		}
	}
	if _, ok := bc.originOf(record.MakePair(1, 4)); ok {
		t.Error("a pair of preloaded records got an origin")
	}
	got := []received{
		{at: t0.Add(1500 * time.Millisecond), pairs: []record.Pair{record.MakePair(5, 6), record.MakePair(3, 8), record.MakePair(0, 1)}},
		{at: t0.Add(2250 * time.Millisecond), pairs: []record.Pair{record.MakePair(8, 11)}},
	}
	lat, skipped := deliverLatencies(bc, got)
	want := samples{1500, 500, 250}
	if skipped != 1 || len(lat) != len(want) {
		t.Fatalf("latencies %v (skipped %d), want %v (skipped 1)", lat, skipped, want)
	}
	for i := range want {
		if lat[i] != want[i] {
			t.Errorf("latency %d = %v ms, want %v", i, lat[i], want[i])
		}
	}
}

func TestUnstampedBatchHasNoOrigin(t *testing.T) {
	bc := newBatchClock([]int{2, 2}, 0)
	bc.stamp(0, time.Unix(1, 0))
	if _, ok := bc.originOf(record.MakePair(0, 3)); ok {
		t.Error("pair from an unsent batch got an origin")
	}
}

func TestMetricNameAlphabet(t *testing.T) {
	for _, ok := range []string{"setup_s", "ingest_rps", "lsh.sign_s", "engine.max_bucket", "a-b.c_d", "9lives"} {
		if !metricNameRE.MatchString(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", "p99%", "µs", "a:b"} {
		if metricNameRE.MatchString(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	if metricNameRE.Match(long) {
		t.Error("a 65-character name was accepted")
	}
}

// TestManifestMatchesHarness checks BENCHMARK.json against the harness:
// every name is in the alphabet, every workload is defined in spec.json,
// and every layer metric says which end-to-end metric it should move.
func TestManifestMatchesHarness(t *testing.T) {
	m, err := loadManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range m.Workloads {
		ws, err := sp.workload(w.Name)
		if err != nil {
			t.Error(err)
			continue
		}
		for _, d := range m.EndToEnd {
			if strings.HasSuffix(d.Name, "_tail_ms") {
				if _, ok := ws.Tails[d.Name]; !ok {
					t.Errorf("workload %s fixes no percentile for %s", w.Name, d.Name)
				}
			}
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), m.EndToEnd...), m.PerLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s listed twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range m.PerLayer {
		if len(sp.Layers[d.Name]) == 0 {
			t.Errorf("layer metric %s has no end-to-end mapping in spec.json", d.Name)
		}
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	for k := range top {
		switch k {
		case "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer":
		default:
			t.Errorf("BENCHMARK.json has unexpected key %q", k)
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 60}, // overlaps a
		{ID: 3, Parent: 1, Name: "c", Start: 20, End: 50}, // overruns its parent
	}
	got := selfTimes(spans)
	want := map[string]float64{"root": 50e-9, "a": 10e-9, "b": 30e-9, "c": 30e-9}
	for name, w := range want {
		if d := got[name] - w; d > 1e-15 || d < -1e-15 {
			t.Errorf("self(%s) = %g, want %g", name, got[name], w)
		}
	}
}
