package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"bristle/internal/experiments"
	"bristle/internal/hashkey"
	"bristle/internal/overlay"
	"bristle/internal/simnet"
	"bristle/internal/topology"
)

// figure is one of the paper's tables or figures at the reduced scale
// of the root package's benchmarks (bench_test.go), with their seeds.
type figure struct {
	name string
	run  func() (interface{}, error)
}

var figures = []figure{
	{"table1", func() (interface{}, error) {
		return experiments.RunTable1(experiments.Table1Config{
			Stationary: 120, Mobile: 60, Sessions: 100, Rounds: 3,
			FailFraction: 0.1, Routers: 400, Seed: 42,
		})
	}},
	{"fig7", func() (interface{}, error) {
		return experiments.RunFig7(experiments.Fig7Config{
			Stationary: 120, MobileFracs: []float64{0, 0.4, 0.8},
			Routes: 200, Routers: 400, Seed: 1,
		})
	}},
	{"fig8", func() (interface{}, error) {
		return experiments.RunFig8(experiments.Fig8Config{
			Nodes: 25000, RegistrySize: 15, MaxCapacity: 15,
			Trees: 200, SampleTrees: 15, Seed: 8,
		})
	}},
	{"fig9", func() (interface{}, error) {
		return experiments.RunFig9(experiments.Fig9Config{
			Routers: 500, Fracs: []float64{0.3, 1.0},
			RegistrySize: 10, CandidateFrac: 0.15, MaxCapacity: 15, Seed: 9,
		})
	}},
}

// simPass runs every figure once and returns the digest of their outputs
// and the CPU time each figure took.
func simPass() (string, map[string]time.Duration, error) {
	h := sha256.New()
	durs := make(map[string]time.Duration)
	for _, f := range figures {
		c0 := cpuTime()
		out, err := f.run()
		durs[f.name] = cpuTime() - c0
		if err != nil {
			return "", nil, fmt.Errorf("%s: %w", f.name, err)
		}
		fmt.Fprintf(h, "%s=%+v\n", f.name, out)
	}
	return hex.EncodeToString(h.Sum(nil)), durs, nil
}

// simTimes collects the figure code's passes over a run. The figure code
// is single-threaded, so on an undisturbed host its CPU time is its run
// time; unlike wall time, CPU time leaves out what the hypervisor gives to
// other guests, which on a busy host stretched a pass's wall time by as
// much as 60%.
type simTimes struct {
	secs    []float64            // each pass, whole: CPU seconds, the figure code and its collections
	wall    []float64            // each pass, wall seconds
	figMs   map[string][]float64 // each pass, per figure: CPU milliseconds
	digests map[string]bool      // output digests seen; one when deterministic
}

func newSimTimes() *simTimes {
	return &simTimes{figMs: make(map[string][]float64), digests: make(map[string]bool)}
}

// passes runs the figure code n times, each on a freshly collected heap.
func (s *simTimes) passes(n int) error {
	for i := 0; i < n; i++ {
		runtime.GC()
		t0, c0 := time.Now(), cpuTime()
		d, durs, err := simPass()
		if err != nil {
			return fmt.Errorf("sim pass: %w", err)
		}
		s.secs = append(s.secs, (cpuTime() - c0).Seconds())
		s.wall = append(s.wall, time.Since(t0).Seconds())
		s.digests[d] = true
		for name, dur := range durs {
			s.figMs[name] = append(s.figMs[name], ms(dur))
		}
	}
	return nil
}

// dijkstraMs times single-source shortest paths on the 2,000-router
// transit-stub graph of the root package's BenchmarkDijkstra.
func dijkstraMs(runs int) (float64, error) {
	g, err := topology.GenerateTransitStub(topology.DefaultTransitStub(2000), rand.New(rand.NewSource(91)))
	if err != nil {
		return 0, err
	}
	ds := make([]float64, runs)
	for i := range ds {
		t0 := time.Now()
		topology.Dijkstra(g, topology.RouterID(i%g.NumRouters()))
		ds[i] = ms(time.Since(t0))
	}
	return median(ds), nil
}

// overlayRouteUs times greedy overlay routes on the 2,048-node ring of the
// root package's BenchmarkOverlayRoute: the median over batches of 100
// routes of the mean time per route.
func overlayRouteUs(batches int) (float64, error) {
	rng := rand.New(rand.NewSource(90))
	ring := overlay.NewRing(overlay.DefaultConfig(), nil)
	for i := 0; i < 2048; i++ {
		for {
			if _, err := ring.AddNode(hashkey.Random(rng), simnet.NoHost); err == nil {
				break
			}
		}
	}
	nodes := ring.Nodes()
	out := make([]float64, batches)
	for b := range out {
		t0 := time.Now()
		for i := 0; i < 100; i++ {
			src := nodes[(b*100+i)%len(nodes)]
			if _, err := ring.Route(src.Ref.ID, hashkey.Random(rng), nil); err != nil {
				return 0, err
			}
		}
		out[b] = float64(time.Since(t0)) / 100 / float64(time.Microsecond)
	}
	return median(out), nil
}
