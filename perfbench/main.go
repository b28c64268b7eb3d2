// Command perfbench is the repository benchmark: it drives an in-process
// Bristle cluster over loopback TCP through the public live API and
// prints every metric by name with its unit (README.md lists them).
//
//	perfbench --workload resolve-hot --seed 1 --seconds 48 --trace 0
//
// Each run times the paper's figure code (five passes), builds the
// fabric (five times; set-up time is their median), then alternates four
// closed-loop resolve windows, a sixteenth of --seconds each, with three
// open-loop move windows, a quarter each, and finally closes the fabric
// and times five more figure passes. The last line of standard output is
// the result as one JSON object.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"time"

	"bristle/internal/ldt"
	"bristle/internal/metrics"
	"bristle/internal/wire"
)

const (
	setupRuns = 5
	simRuns   = 10
	// resolveWindows is how many resolve windows a run has, with a move
	// window between each two. Both kinds then sample the whole run: the
	// host's speed and resolve-hot's contention modes drift over seconds.
	resolveWindows = 4
	// runBudget is well inside the 180 s a run may take; a run that hangs
	// is stopped rather than left to the caller's timeout.
	runBudget = 170 * time.Second
)

var workloads = []string{"resolve-hot", "resolve-cold"}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"` // samples behind a percentile or median
	// Blocks holds each block's value for a metric reported as the median
	// over the blocks of its window.
	Blocks []float64 `json:"blocks,omitempty"`
}

// result is the last line of standard output. Sample counts stay in the
// report lines above it and in the full report file.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	errs []string // what went wrong, for standard error
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func values(ms map[string]metric) map[string]value {
	out := make(map[string]value, len(ms))
	for k, m := range ms {
		out[k] = value{Value: m.Value, Unit: m.Unit}
	}
	return out
}

func main() {
	workload := flag.String("workload", "", "resolve-hot or resolve-cold")
	seed := flag.Int64("seed", 1, "seed every input of the run derives from")
	seconds := flag.Int("seconds", 48, "measured seconds: a quarter resolves in four windows, the rest moves")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for spans and the full report")
	flag.Parse()
	if !slices.Contains(workloads, *workload) || *seconds < 4 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload %v, --seconds ≥ 4, --trace 0|1\n", workloads)
		os.Exit(2)
	}
	watchdog := time.AfterFunc(runBudget, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded its time budget")
		os.Exit(3)
	})
	defer watchdog.Stop()

	r, err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	for _, e := range r.errs {
		fmt.Fprintf(os.Stderr, "perfbench: %s\n", e)
	}
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !r.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: incorrect run: %d of %d operations failed, %d errors\n", r.Failed, r.Attempted, len(r.errs))
		os.Exit(1)
	}
}

// report collects every number a run produces; the result line carries
// the end-to-end or the per-layer subset.
type report struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Trace    bool              `json:"trace"`
	Clients  int               `json:"clients"`
	Host     hostReport        `json:"host"`
	E2E      map[string]metric `json:"end_to_end"`
	Layer    map[string]metric `json:"per_layer"`
	Info     map[string]metric `json:"info"`
	Deltas   roleCounts        `json:"counter_deltas"`
	Moves    []moveRecord      `json:"moves"`
	Errors   []string          `json:"errors,omitempty"`
}

func run(workload string, seed int64, total time.Duration, traced bool, outDir string) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	clients := 2
	if p := runtime.GOMAXPROCS(0); clients > p {
		clients = p
	}
	resolveDur := total / (4 * resolveWindows)   // each resolve window; a quarter in all
	moveDur := total - resolveWindows*resolveDur // all move windows together
	host, err := loopbackHost()
	if err != nil {
		return nil, err
	}
	rep := &report{Workload: workload, Seed: seed, Trace: traced, Clients: clients, Host: readHost(".", host),
		E2E: map[string]metric{}, Layer: map[string]metric{}, Info: map[string]metric{}}

	// The figure code runs alone on a fresh heap, half of its passes
	// before the cluster is built and half after it is closed, so that its
	// median spans the whole run rather than one moment of the host.
	sim := newSimTimes()
	if err := sim.passes(simRuns / 2); err != nil {
		return nil, err
	}

	keys, err := resourceKeys(seed)
	if err != nil {
		return nil, err
	}
	// Set-up: the whole fabric, built setupRuns times from the same seed
	// and timed each time; the last build is the one the windows use.
	var setups []float64
	var c *cluster
	defer func() {
		if c != nil {
			c.close()
		}
	}()
	for i := 0; i < setupRuns; i++ {
		if c != nil {
			c.close()
		}
		t0 := time.Now()
		c, err = buildCluster(ctx, seed, host, keys)
		if err == nil {
			err = warm(ctx, c, c.resolvers[0], workload)
		}
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.E2E["setup_s"] = metric{Value: median(setups), Unit: "s", N: len(setups)}

	initial := make([]string, nMobile)
	for i, m := range c.mobiles {
		initial[i] = m.node.Addr()
	}
	b := newBindings(initial)

	// The resolve windows alternate with the move windows, and each resolve
	// window has a resolver of its own: once mobiles have moved, an earlier
	// resolver's cache holds bindings of its own window, so every window
	// starts from the state the first started from, with resolve-hot's
	// working set resolved just before it (at set-up for the first). A
	// traced run traces the last resolve window, every other block of it,
	// and every move.
	var tr *tracer
	if traced {
		tr = newTracer(time.Now())
	}
	sched := moveSchedule(seed, moveDur)
	mr := &moveResult{watchLat: newHist()}
	rr := resolveResult{hit: newHist(), miss: newHist()}
	var last resolveResult
	var resolveWins, moveWins [][2]roleCounts
	for w := 0; w < resolveWindows; w++ {
		if w > 0 {
			runtime.GC() // every window starts from a freshly collected heap
			before := c.roleCounters(nil)
			from := time.Duration(w-1) * moveDur / (resolveWindows - 1)
			to := time.Duration(w) * moveDur / (resolveWindows - 1)
			if err := runMoves(ctx, c, b, clients, sched, from, to, moveDur, tr, mr); err != nil {
				return nil, fmt.Errorf("move window: %w%s", err, viewReport(c))
			}
			moveWins = append(moveWins, [2]roleCounts{before, c.roleCounters(nil)})
			if err := warm(ctx, c, c.resolvers[w], workload); err != nil {
				return nil, err
			}
		}
		var wtr *tracer
		if w == resolveWindows-1 {
			wtr = tr
		}
		runtime.GC()
		before := c.roleCounters(c.resolvers[w])
		r, err := runResolves(ctx, c, c.resolvers[w], b, workload, clients, resolveDur, wtr)
		if err != nil {
			return nil, fmt.Errorf("resolve window: %w%s", err, viewReport(c))
		}
		resolveWins = append(resolveWins, [2]roleCounts{before, c.roleCounters(c.resolvers[w])})
		rr = rr.merge(r)
		last = r
	}
	overheadPct := traceOverheadPct(last)

	e2e := rep.E2E
	// Throughput is every resolve over the time the resolve windows took;
	// the block values beside it show how it moved.
	blockSecs := (resolveDur / resolveBlocks).Seconds()
	rate := blockMetric(len(rr.blocks), "1/s", rr.ops, func(i int) float64 { return float64(rr.blocks[i].n) / blockSecs })
	rate.Value = float64(rr.ops) / rr.elapsed.Seconds()
	e2e["resolve_ops_per_s"] = rate
	// The resolve percentiles and the p90 move tails are per-layer: on
	// resolve-hot the median flips between contention modes, p99 follows
	// the host's steal time and the move tails the shared heap's
	// collections (README.md); all swing too far between runs to hold a
	// bound.
	for _, p := range []struct {
		name string
		q    float64
	}{{"resolve_p50_us", 0.50}, {"resolve_p99_us", 0.99}} {
		q := p.q
		rep.Layer[p.name] = blockMetric(len(rr.blocks), "us", rr.ops, func(i int) float64 { return rr.blocks[i].quantileNs(q) / 1e3 })
		for i, h := range rr.blocks {
			if !supported(q, h.n) {
				return nil, fmt.Errorf("%s: block %d has %d resolves, too few for %d beyond the percentile", p.name, i, h.n, minBeyond)
			}
		}
	}
	// The block histograms are not part of the cluster's heap.
	rr.blocks, last.blocks = nil, nil

	// Two collections: pooled buffers survive the first one in sync.Pool's
	// victim cache.
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	heapMB := float64(mem.HeapAlloc) / (1 << 20)
	storeRecords := 0
	for _, s := range c.stationary {
		storeRecords += s.node.Stats().StoreRecords
	}

	if traced {
		if err := probeMoveLayers(ctx, c, tr, rep); err != nil {
			return nil, err
		}
	}
	for _, m := range c.all() {
		rep.Errors = append(rep.Errors, conservationErrors(m.name, m.node.Stats().Counters)...)
	}
	if foreign := c.foreignStationary(); len(foreign) > 0 {
		rep.Errors = append(rep.Errors, fmt.Sprintf("%d foreign stationary entries in the cluster's views", len(foreign)))
		rep.Errors = append(rep.Errors, keepSamples(nil, foreign...)...)
	}
	// The closed cluster is dropped and its memory handed back to the OS
	// now, so that the figure passes below start from a heap about as
	// small as the first passes had. Kept, its 29 MB of live heap set the
	// collector's pace for them (3 collections a pass instead of 25), so
	// they timed the cluster's heap as much as the figure code.
	c.close()
	c = nil
	debug.FreeOSMemory()
	if err := sim.passes(simRuns - simRuns/2); err != nil {
		return nil, err
	}
	if len(sim.digests) != 1 {
		rep.Errors = append(rep.Errors, fmt.Sprintf("figure code gave %d different output digests over %d passes", len(sim.digests), simRuns))
	}

	resolveDelta := counterDelta(resolveWins...)
	moveDelta := counterDelta(moveWins...)
	for _, p := range []struct {
		name string
		vs   *[moveBlocks][]float64
	}{{"rebind", &mr.rebindMs}, {"converge", &mr.convergeMs}} {
		vs := p.vs
		var all []float64
		for i, b := range vs {
			all = append(all, b...)
			if !supported(0.5, len(b)) {
				return nil, fmt.Errorf("%s_p50_ms: block %d has %d moves, too few for %d beyond the median; raise --seconds", p.name, i, len(b), minBeyond)
			}
		}
		if !supported(0.9, len(all)) {
			return nil, fmt.Errorf("%s_p90_ms: %d moves leave fewer than %d beyond the percentile; raise --seconds", p.name, len(all), minBeyond)
		}
		sort.Float64s(all)
		e2e[p.name+"_p50_ms"] = blockMetric(moveBlocks, "ms", len(all), func(i int) float64 { return quantile(vs[i], 0.5) })
		rep.Layer[p.name+"_p90_ms"] = metric{Value: quantile(all, 0.9), Unit: "ms", N: len(all)}
	}
	e2e["live_heap_mb"] = metric{Value: heapMB, Unit: "MB"}
	e2e["sim_figures_s"] = metric{Value: median(sim.secs), Unit: "s", N: len(sim.secs)}
	rep.Info["sim_figures_wall_s"] = metric{Value: median(sim.wall), Unit: "s", N: len(sim.wall)}

	attempted := rr.ops + mr.watchOps + mr.moves
	failed := rr.failed + mr.watchFailed + mr.failed
	info := rep.Info
	info["fail_ratio"] = metric{Value: float64(failed) / float64(attempted), Unit: "ratio", N: attempted}
	info["stale_ratio"] = metric{Value: float64(mr.stale) / float64(mr.watchOps), Unit: "ratio", N: mr.watchOps}
	info["moves"] = metric{Value: float64(mr.moves), Unit: "count"}
	info["moves_per_s_scheduled"] = metric{Value: float64(len(sched)) / moveDur.Seconds(), Unit: "1/s"}
	info["moves_per_s_achieved"] = metric{Value: float64(mr.moves) / mr.elapsed.Seconds(), Unit: "1/s"}
	info["watch_resolves_per_s"] = metric{Value: float64(mr.watchOps) / mr.elapsed.Seconds(), Unit: "1/s", N: mr.watchOps}
	info["watch_resolve_p50_us"] = metric{Value: mr.watchLat.quantileNs(0.5) / 1e3, Unit: "us", N: mr.watchLat.n}
	info["host.steal_pct_resolve"] = metric{Value: rr.usage.stealPct(), Unit: "%"}
	info["host.steal_pct_move"] = metric{Value: mr.usage.stealPct(), Unit: "%"}
	info["move_cpu_cores"] = metric{Value: mr.usage.cpu.Seconds() / mr.usage.wallDur.Seconds(), Unit: "cores"}
	rep.Errors = append(rep.Errors, mr.failures...)
	rep.Errors = append(rep.Errors, rr.samples...)
	rep.Errors = append(rep.Errors, mr.watchErrs...)
	rep.Moves = mr.trail

	// Per-layer metrics.
	lay := rep.Layer
	res := resolveDelta["resolver"]
	lookups := float64(res["loccache.lookups"])
	lay["loccache.hit_ratio"] = metric{Value: ratio(float64(res["loccache.hit"]), lookups), Unit: "ratio", N: int(lookups)}
	for _, k := range []string{"loccache.stale", "loccache.coalesced", "loccache.evicted"} {
		lay[k] = metric{Value: float64(res[k]), Unit: "count"}
	}
	ops := float64(rr.ops)
	lay["live.resolve.discoveries"] = metric{Value: float64(res["resolve.discoveries"]) / ops, Unit: "1/op"}
	for _, k := range []string{"rpc.retries", "rpc.timeouts", "pool.dials", "pool.broken", "breaker.trips"} {
		lay["live."+k] = metric{Value: float64(res[k]) / ops, Unit: "1/op"}
		lay["move."+k] = metric{Value: float64(sumRoles(moveDelta, k)) / float64(mr.moves), Unit: "1/move"}
	}
	moves := float64(mr.moves)
	lay["publish.rpcs"] = metric{Value: float64(moveDelta["mobile"]["publish.rpcs"]) / moves, Unit: "1/move"}
	lay["publish.records"] = metric{Value: float64(moveDelta["stationary"]["publish.records"]) / moves, Unit: "1/move"}
	for _, k := range []string{"updates.applied", "updates.coalesced", "updates.dropped", "updates.stale_rejected"} {
		lay[k] = metric{Value: float64(sumRoles(moveDelta, k)) / moves, Unit: "1/move"}
	}
	lay["live.store_records"] = metric{Value: float64(storeRecords), Unit: "count"}
	lay["runtime.allocs_per_op"] = metric{Value: float64(rr.usage.mallocs) / ops, Unit: "1/op"}
	lay["runtime.gc_cycles"] = metric{Value: float64(rr.usage.numGC + mr.usage.numGC), Unit: "count"}
	lay["runtime.gc_pause_ms"] = metric{Value: float64(rr.usage.pauseNs+mr.usage.pauseNs) / 1e6, Unit: "ms"}
	lay["process.cpu_cores"] = metric{Value: rr.usage.cpu.Seconds() / rr.usage.wallDur.Seconds(), Unit: "cores"}
	lay["gen.move_late_ms"] = metric{Value: median(mr.lateMs), Unit: "ms", N: len(mr.lateMs)}
	lay["oracle.stale_ratio"] = info["stale_ratio"]
	for _, f := range figures {
		lay["experiments."+f.name+"_ms"] = metric{Value: median(sim.figMs[f.name]), Unit: "ms", N: len(sim.figMs[f.name])}
	}
	if traced {
		lay["bench.trace_overhead_pct"] = metric{Value: overheadPct, Unit: "%"}
		lay["metrics.counter_inc_ns"] = metric{Value: counterIncNs(clients), Unit: "ns"}
		lay["live.resolve_hit_ns"] = metric{Value: rr.hit.quantileNs(0.5), Unit: "ns", N: rr.hit.n}
		lay["live.resolve_miss_us"] = metric{Value: rr.miss.quantileNs(0.5) / 1e3, Unit: "us", N: rr.miss.n}
		spans := tr.all()
		for _, l := range []struct{ span, name, unit string }{
			{"live.discover", "live.discover_us", "us"},
			{"live.rpc_ping", "live.rpc_ping_us", "us"},
			{"transport.roundtrip", "transport.roundtrip_us", "us"},
			{"wire.codec", "wire.codec_ns", "ns"},
			{"live.publish", "live.publish_ms", "ms"},
			{"live.update_registry", "live.update_registry_ms", "ms"},
		} {
			v, n := medianDur(spans, l.span)
			lay[l.name] = metric{Value: v / unitNs[l.unit], Unit: l.unit, N: n}
		}
		lay["ladder.discover_self_us"] = metric{Value: layerSelf(spans, "live.discover", "live.rpc_ping") / 1e3, Unit: "us"}
		lay["ladder.rpc_self_us"] = metric{Value: layerSelf(spans, "live.rpc_ping", "transport.roundtrip") / 1e3, Unit: "us"}
		lay["ladder.transport_self_us"] = metric{Value: layerSelf(spans, "transport.roundtrip", "wire.codec") / 1e3, Unit: "us"}
		lay["bench.move_self_ms"] = metric{Value: median(mr.selfMs), Unit: "ms", N: len(mr.selfMs)}
		dj, err := dijkstraMs(20)
		if err != nil {
			return nil, err
		}
		lay["topology.dijkstra_ms"] = metric{Value: dj, Unit: "ms", N: 20}
		or, err := overlayRouteUs(20)
		if err != nil {
			return nil, err
		}
		lay["overlay.route_us"] = metric{Value: or, Unit: "us", N: 20}
		name := fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed)
		if err := tr.write(filepath.Join(outDir, name)); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	rep.Deltas = roleCounts{}
	for role, cs := range resolveDelta {
		rep.Deltas["resolve/"+role] = cs
	}
	for role, cs := range moveDelta {
		rep.Deltas["move/"+role] = cs
	}

	r := &result{Correct: len(rep.Errors) == 0 && failed == 0, Attempted: attempted, Failed: failed, Metrics: values(e2e), errs: rep.Errors}
	if traced {
		r.Metrics = values(lay)
	}
	printReport(rep)
	if err := writeReport(rep, outDir); err != nil {
		return nil, err
	}
	return r, nil
}

// traceOverheadPct compares a traced window's untraced blocks with its
// traced ones: how much faster resolves ran without tracing, in percent.
func traceOverheadPct(rr resolveResult) float64 {
	var ops [2]int
	var blocks [2]int
	for i, h := range rr.blocks {
		t := 0
		if tracedBlock(i) {
			t = 1
		}
		ops[t] += h.n
		blocks[t]++
	}
	untraced := float64(ops[0]) / float64(blocks[0])
	traced := float64(ops[1]) / float64(blocks[1])
	return (untraced/traced - 1) * 100
}

var unitNs = map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// warm readies a resolver for a workload: resolve-hot's working set is
// resolved once so the window starts with it cached.
func warm(ctx context.Context, c *cluster, r *member, workload string) error {
	if workload != "resolve-hot" {
		return nil
	}
	for _, idx := range hotSet(c.seed) {
		if _, err := r.node.ResolveContext(ctx, c.keys[idx]); err != nil {
			return fmt.Errorf("pre-warm %s: %w%s", r.name, err, viewReport(c))
		}
	}
	return nil
}

// viewReport describes the foreign stationary entries in the cluster's
// views, if there are any, for an error message.
func viewReport(c *cluster) string {
	foreign := c.foreignStationary()
	if len(foreign) == 0 {
		return ""
	}
	return fmt.Sprintf(" (%d foreign stationary entries in the cluster's views, first: %s)", len(foreign), foreign[0])
}

// counterIncNs measures metrics.Counters.Inc from clients goroutines on
// one registry: wall time per Inc as each goroutine sees it.
func counterIncNs(clients int) float64 {
	const per = 200000
	c := metrics.NewCounters()
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc("loccache.hit")
			}
		}()
	}
	wg.Wait()
	return float64(time.Since(t0)) / per
}

// probeMoveLayers times the protocol steps inside a rebind one at a time
// on the quiet cluster after the move window: PublishContext of each
// mobile's 2,049 records, UpdateRegistryContext to its 32 watchers, the
// LDT build over that registry and the batch frame codec.
func probeMoveLayers(ctx context.Context, c *cluster, tr *tracer, rep *report) error {
	buf := tr.buffer()
	for i, m := range c.mobiles {
		op := uint64(1<<40) + uint64(i)
		s := buf.now()
		if err := m.node.PublishContext(ctx); err != nil {
			return fmt.Errorf("probe publish %s: %w", m.name, err)
		}
		buf.record("live.publish", op, 0, s, buf.now())
		s = buf.now()
		if err := m.node.UpdateRegistryContext(ctx); err != nil {
			return fmt.Errorf("probe update registry %s: %w", m.name, err)
		}
		buf.record("live.update_registry", op, 0, s, buf.now())
	}

	reg := c.mobiles[0].node.Registry()
	members := make([]ldt.Member, len(reg))
	for i, e := range reg {
		members[i] = ldt.Member{ID: int32(i + 1), Capacity: e.Capacity}
	}
	var builds []float64
	depth := 0
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		tree, err := ldt.Build(ldt.Member{ID: 0, Capacity: nodeCapacity}, members, ldt.Params{UnitCost: 1})
		builds = append(builds, float64(time.Since(t0))/1e3)
		if err != nil {
			return fmt.Errorf("ldt build: %w", err)
		}
		depth = tree.Depth()
	}
	rep.Layer["ldt.build_us"] = metric{Value: median(builds), Unit: "us", N: len(builds)}
	rep.Layer["ldt.depth"] = metric{Value: float64(depth), Unit: "levels", N: len(members)}

	self := c.mobiles[0].node.SelfEntry()
	batch := &wire.Message{Type: wire.TPublishBatch, Self: self}
	batch.Entries = append(batch.Entries, self)
	for _, k := range c.keys[:keysPerMobile] {
		batch.Entries = append(batch.Entries, wire.Entry{Key: k, Addr: self.Addr, TTLMilli: self.TTLMilli, Epoch: self.Epoch})
	}
	var codec []float64
	var frame []byte
	for i := 0; i < 50; i++ {
		t0 := time.Now()
		var err error
		frame, err = wire.AppendFrame(frame[:0], batch)
		if err == nil {
			var m *wire.Message
			m, err = wire.Decode(bytes.NewReader(frame))
			if err == nil {
				wire.PutMessage(m)
			}
		}
		codec = append(codec, float64(time.Since(t0))/1e3)
		if err != nil {
			return fmt.Errorf("batch codec: %w", err)
		}
	}
	rep.Layer["wire.batch_codec_us"] = metric{Value: median(codec), Unit: "us", N: len(codec)}
	return nil
}

func printReport(rep *report) {
	h := rep.Host
	fmt.Printf("# perfbench workload=%s seed=%d trace=%v clients=%d\n", rep.Workload, rep.Seed, rep.Trace, rep.Clients)
	fmt.Printf("# host cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s source=%s network=%q\n",
		h.CPU, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit, h.SourceHash, h.Network)
	for _, group := range []struct {
		title string
		ms    map[string]metric
	}{{"end-to-end", rep.E2E}, {"info", rep.Info}, {"per-layer", rep.Layer}} {
		names := make([]string, 0, len(group.ms))
		for n := range group.ms {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := group.ms[n]
			line := fmt.Sprintf("# %-10s %-28s %14.6g %s", group.title, n, m.Value, m.Unit)
			if m.N > 0 {
				line += fmt.Sprintf("  (n=%d)", m.N)
			}
			if len(m.Blocks) > 0 {
				line += fmt.Sprintf("  blocks %.4g", m.Blocks)
			}
			fmt.Println(line)
		}
	}
	for _, e := range rep.Errors {
		fmt.Printf("# ERROR %s\n", e)
	}
}

func writeReport(rep *report, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	trace := 0
	if rep.Trace {
		trace = 1
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("report-%s-seed%d-trace%d.json", rep.Workload, rep.Seed, trace)), data, 0o644)
}
