package main

import (
	"math"
	"net"
	"reflect"
	"testing"
	"time"

	"bristle/internal/loccache"
	"bristle/internal/metrics"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		q    float64
		n    int
		want bool
	}{
		{0.99, 1000, true},
		{0.99, 999, false},
		{0.99, 100000, true},
		{0.90, 100, true},
		{0.90, 99, false},
		{0.50, 20, true},
		{0.50, 19, false},
		{0.50, 0, false},
	} {
		if got := supported(c.q, c.n); got != c.want {
			t.Errorf("supported(%v, %d) = %v, want %v", c.q, c.n, got, c.want)
		}
	}
	vs := make([]float64, 100)
	for i := range vs {
		vs[i] = float64(i + 1)
	}
	if got := quantile(vs, 0.5); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	if got := quantile(vs, 0.9); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90 (10 samples beyond)", got)
	}
}

func TestMidmeanDropsOutlyingQuarters(t *testing.T) {
	// Ten values: the two lowest and two highest are dropped.
	vs := []float64{100, 1, 5, 5, 5, 5, 7, 7, 0, 9}
	if got := midmean(vs); got != 34.0/6 {
		t.Errorf("midmean = %v, want mean(5,5,5,5,7,7) = %v", got, 34.0/6)
	}
	// A quantity flipping between two modes moves with the mix instead of
	// jumping from one mode to the other as a median would.
	mix := func(slow int) float64 {
		vs := make([]float64, 10)
		for i := range vs {
			vs[i] = 1.0
			if i < slow {
				vs[i] = 1.6
			}
		}
		return midmean(vs)
	}
	if a, b := mix(4), mix(6); b-a > 0.3 {
		t.Errorf("midmean jumps from %v to %v between 4 and 6 slow blocks of 10", a, b)
	}
}

func TestHistogramResolution(t *testing.T) {
	for v := int64(0); v < 1<<24; v = v*5/4 + 1 {
		got := bucketValue(bucketOf(v))
		if v < 1<<histBits && got != float64(v) {
			t.Fatalf("value %d below 2^%d reads back as %v", v, histBits, got)
		}
		if rel := math.Abs(got-float64(v)) / float64(v); v > 0 && rel > 1.0/(1<<(histBits-1)) {
			t.Fatalf("value %d reads back as %v (relative error %.4f)", v, got, rel)
		}
	}
	h := newHist()
	for i := 1; i <= 100000; i++ {
		h.add(time.Duration(i))
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * 100000
		if got := h.quantileNs(q); math.Abs(got-want)/want > 0.003 {
			t.Errorf("p%v = %v, want %v within 0.3%%", q*100, got, want)
		}
	}
}

func TestSeedDeterminesSchedules(t *testing.T) {
	for _, wl := range workloads {
		a, b, c := opSchedule(wl, 7, 0), opSchedule(wl, 7, 0), opSchedule(wl, 8, 0)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different op schedules", wl)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds gave the same op schedule", wl)
		}
		if reflect.DeepEqual(a, opSchedule(wl, 7, 1)) {
			t.Errorf("%s: two clients share one op schedule", wl)
		}
	}
	d := 30 * time.Second
	a, b, c := moveSchedule(7, d), moveSchedule(7, d), moveSchedule(8, d)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different move schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same move schedule")
	}
	// Poisson with a 50 ms mean: about 600 moves in 30 s.
	if n := len(a); n < 500 || n > 700 {
		t.Errorf("%d moves scheduled in %v, want about %d", n, d, int(d/moveMean))
	}
	if !reflect.DeepEqual(watchSchedule(7, 0), watchSchedule(7, 0)) || reflect.DeepEqual(watchSchedule(7, 0), watchSchedule(8, 0)) {
		t.Error("watch schedule is not a function of the seed")
	}
}

func TestHotSetFitsDefaultCache(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		keys, err := resourceKeys(seed)
		if err != nil {
			t.Fatal(err)
		}
		ctr := metrics.NewCounters()
		c := loccache.New(loccache.Config{Counters: ctr}) // the default bound a live node runs with
		hot := hotSet(seed)
		seen := map[int32]bool{}
		for _, idx := range hot {
			if seen[idx] {
				t.Fatalf("seed %d: hot set repeats key %d", seed, idx)
			}
			seen[idx] = true
			c.Put(keys[idx], "127.0.0.1:1", time.Minute)
		}
		if ev := ctr.Get("loccache.evicted"); ev != 0 || c.Len() != hotKeys {
			t.Errorf("seed %d: %d hot keys leave %d cached after %d evictions", seed, hotKeys, c.Len(), ev)
		}
		for _, idx := range hot {
			if _, st := c.Lookup(keys[idx]); st != loccache.Fresh {
				t.Fatalf("seed %d: hot key %d not cached fresh: %v", seed, idx, st)
			}
		}
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{
		{Start: 10, End: 30},
		{Start: 20, End: 40},  // overlaps the first: [10,40] counts once
		{Start: 90, End: 120}, // only [90,100] lies inside the parent
		{Start: -10, End: 5},  // only [0,5]
		{Start: 200, End: 300},
	}
	if got := selfTime(parent, kids); got != 55 {
		t.Errorf("self time = %d, want 100 − (30 + 10 + 5) = 55", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self time without children = %d, want 100", got)
	}

	// A layer's self time pairs its span with the same op's probe of the
	// layer below.
	spans := []span{
		{Op: 1, Name: "live.discover", Start: 0, End: 50},
		{Op: 1, Name: "live.rpc_ping", Start: 60, End: 80},
		{Op: 2, Name: "live.discover", Start: 100, End: 170},
		{Op: 2, Name: "live.rpc_ping", Start: 180, End: 190},
		{Op: 3, Name: "live.discover", Start: 200, End: 400}, // no probe: unpaired
	}
	if got := layerSelf(spans, "live.discover", "live.rpc_ping"); got != 45 {
		t.Errorf("discover self = %v, want median(30, 60) = 45", got)
	}
}

func TestBindingsClassify(t *testing.T) {
	b := newBindings([]string{"a0"})
	issued := b.completed[0].Load()
	b.begin(0)
	// Answered while the move was in flight: the new address is allowed.
	inFlight := answer{m: 0, addr: "a1", issued: issued, returned: b.started[0].Load()}
	b.commit(0, "a1")
	late := answer{m: 0, addr: "a0", issued: b.completed[0].Load(), returned: b.started[0].Load()}
	b.begin(0)
	b.commit(0, "a2")
	for _, c := range []struct {
		a            answer
		stale, wrong bool
	}{
		{inFlight, false, false},
		{answer{m: 0, addr: "a0", issued: 0, returned: 1}, false, false},
		{late, true, false}, // issued after a1 was bound, answered a0
		{answer{m: 0, addr: "zz", issued: 0, returned: 2}, false, true},
	} {
		stale, wrong := b.classify(c.a)
		if stale != c.stale || wrong != c.wrong {
			t.Errorf("%+v: stale=%v wrong=%v, want %v %v", c.a, stale, wrong, c.stale, c.wrong)
		}
	}
	if !b.fresh(0, "a2") || b.fresh(0, "a1") {
		t.Error("fresh must accept exactly the current binding")
	}
}

func TestConservation(t *testing.T) {
	ok := map[string]uint64{
		"loccache.lookups": 10, "loccache.hit": 6, "loccache.stale": 1, "loccache.negative": 1, "loccache.miss": 2,
		"join.requests": 3, "join.accepted": 2, "join.rejected.bad_sig": 1,
	}
	if errs := conservationErrors("n", ok); len(errs) != 0 {
		t.Errorf("balanced counters flagged: %v", errs)
	}
	bad := map[string]uint64{"loccache.lookups": 10, "loccache.hit": 9, "join.requests": 1}
	if errs := conservationErrors("n", bad); len(errs) != 2 {
		t.Errorf("want both laws broken, got %v", errs)
	}
}

func TestCounterDeltaSumsWindows(t *testing.T) {
	snap := func(hit, dials uint64) roleCounts {
		return roleCounts{"resolver": {"loccache.hit": hit, "pool.dials": dials}}
	}
	// Two windows with a stretch between them that must not count.
	got := counterDelta([2]roleCounts{snap(10, 1), snap(110, 1)}, [2]roleCounts{snap(500, 7), snap(550, 8)})
	want := roleCounts{"resolver": {"loccache.hit": 150, "pool.dials": 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("counterDelta = %v, want %v", got, want)
	}
}

func TestTraceOverheadComparesAlternateBlocks(t *testing.T) {
	rr := resolveResult{blocks: newHists(4)}
	for i, n := range []int{110, 100, 110, 100} { // untraced, traced, ...
		for j := 0; j < n; j++ {
			rr.blocks[i].add(time.Microsecond)
		}
		if tracedBlock(i) != (i%2 == 1) {
			t.Fatalf("block %d traced = %v", i, tracedBlock(i))
		}
	}
	if got := traceOverheadPct(rr); math.Abs(got-10) > 1e-9 {
		t.Errorf("overhead = %v%%, want 10%%", got)
	}
}

func TestLoopbackHostIsLoopbackOfFixedLength(t *testing.T) {
	for i := 0; i < 50; i++ {
		h, err := loopbackHost()
		if err != nil {
			t.Fatal(err)
		}
		if ip := net.ParseIP(h); ip == nil || !ip.IsLoopback() || len(h) != len("127.100.100.100") {
			t.Fatalf("loopbackHost() = %q", h)
		}
	}
}

func TestKeepSamplesCaps(t *testing.T) {
	var have []string
	for i := 0; i < 3; i++ {
		have = keepSamples(have, "a", "b", "c", "d")
	}
	if len(have) != maxSamples {
		t.Fatalf("kept %d samples, want %d", len(have), maxSamples)
	}
}
