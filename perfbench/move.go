package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"bristle/internal/live"
)

// convergeTimeout bounds how long a move waits for its last watcher; a
// watcher that has not heard of the move by then missed it.
const convergeTimeout = 5 * time.Second

// moveResult is what a run's move windows measured.
type moveResult struct {
	rebindMs   [moveBlocks][]float64 // RebindContext durations, by the block the move was due in
	convergeMs [moveBlocks][]float64 // rebind call → last watcher has the new address
	lateMs     []float64             // generator lateness: start − due
	selfMs     []float64             // traced: move span minus its children
	trail      []moveRecord          // every successful move, for the full report
	moves      int
	failed     int
	failures   []string

	watchLat    *hist // paced watcher resolves, ns
	watchOps    int
	watchFailed int
	watchErrs   []string // the first few failed watcher resolves
	stale       int
	elapsed     time.Duration
	usage       usage
}

// moveRecord is one move as the full report lists it.
type moveRecord struct {
	DueMs      float64 `json:"due_ms"`
	Mobile     int     `json:"mobile"`
	RebindMs   float64 `json:"rebind_ms"`
	ConvergeMs float64 `json:"converge_ms"`
}

// arrivals records, per mobile and watcher, when each address first
// reached the watcher through Updates().
type arrivals struct {
	mu   []sync.Mutex
	got  [][]map[string]time.Time // [mobile][watcher] addr → first arrival
	wake []chan struct{}
}

func newArrivals() *arrivals {
	a := &arrivals{mu: make([]sync.Mutex, nMobile), got: make([][]map[string]time.Time, nMobile), wake: make([]chan struct{}, nMobile)}
	for m := range a.got {
		a.got[m] = make([]map[string]time.Time, nWatcher)
		for w := range a.got[m] {
			a.got[m][w] = make(map[string]time.Time)
		}
		a.wake[m] = make(chan struct{}, 1)
	}
	return a
}

// reset forgets mobile m's arrivals. A move calls it before rebinding:
// the new port may be one the mobile held before, and an arrival from
// that earlier binding must not count for this move.
func (a *arrivals) reset(m int) {
	a.mu[m].Lock()
	for w := range a.got[m] {
		clear(a.got[m][w])
	}
	a.mu[m].Unlock()
}

func (a *arrivals) record(m, w int, addr string, at time.Time) {
	a.mu[m].Lock()
	if _, ok := a.got[m][w][addr]; !ok {
		a.got[m][w][addr] = at
	}
	a.mu[m].Unlock()
	select {
	case a.wake[m] <- struct{}{}:
	default:
	}
}

// last returns when the last watcher received addr for mobile m, and
// whether all of them have.
func (a *arrivals) last(m int, addr string) (time.Time, bool) {
	a.mu[m].Lock()
	defer a.mu[m].Unlock()
	var latest time.Time
	for w := range a.got[m] {
		t, ok := a.got[m][w][addr]
		if !ok {
			return time.Time{}, false
		}
		if t.After(latest) {
			latest = t
		}
	}
	return latest, true
}

// runMoves drives one move window: the moves of sched due in [from, to)
// arrive open-loop, each moving one mobile, which republishes its 2,049
// records and pushes its new address down its LDT to the 32 watchers.
// Beside them, clients goroutines resolve mobile node keys through the
// watchers at a paced watchRate in total. sched covers all of a run's
// move windows on one timeline of the given length, cut into moveBlocks
// blocks by due time; each window adds its results to res.
func runMoves(ctx context.Context, c *cluster, b *bindings, clients int, sched []moveEvent, from, to, timeline time.Duration, tr *tracer, res *moveResult) error {
	d := to - from
	locks := make([]sync.Mutex, nMobile) // one move or renewal per mobile at a time
	lock := func(m int) func() {
		locks[m].Lock()
		return locks[m].Unlock
	}
	// Fresh registrations for the whole window; longer windows renew at
	// half the lease, as bristled -watch does.
	if err := c.registerWatchers(ctx, nil); err != nil {
		return err
	}

	arr := newArrivals()
	stop := make(chan struct{})
	var bg sync.WaitGroup
	for wi, w := range c.watchers {
		bg.Add(1)
		go func(wi int, updates <-chan live.Update) {
			defer bg.Done()
			for {
				select {
				case <-stop:
					return
				case up := <-updates:
					if m, ok := c.mobileIdx[up.Key]; ok {
						arr.record(m, wi, up.Addr, time.Now())
					}
				}
			}
		}(wi, w.node.Updates())
	}
	renewErr := make(chan error, 1)
	bg.Add(1)
	go func() {
		defer bg.Done()
		t := time.NewTicker(leaseTTL / 2)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if err := c.registerWatchers(ctx, lock); err != nil {
					select {
					case renewErr <- err:
					default:
					}
				}
			}
		}
	}()

	u0 := readUsage()
	start := time.Now()
	deadline := start.Add(d)

	// Paced watcher resolves: each client issues the ops that have come
	// due, then sleeps a millisecond. Sleep overshoot delays a batch but
	// does not lose it, so the rate holds.
	type watchOut struct {
		lat         *hist
		ops, failed int
		samples     []string
		pending     []answer
	}
	wouts := make([]watchOut, clients)
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			out := watchOut{lat: newHist()}
			ops := watchSchedule(c.seed, ci)
			rate := float64(watchRate) / float64(clients)
			for i := 0; ; {
				now := time.Now()
				if !now.Before(deadline) {
					break
				}
				due := int(now.Sub(start).Seconds() * rate)
				for ; i < due; i++ {
					op := ops[i&(opRing-1)]
					m := int(op.mobile)
					issued := b.completed[m].Load()
					t0 := time.Now()
					addr, err := c.watchers[op.watcher].node.ResolveContext(ctx, c.mobileKey[m])
					out.lat.add(time.Since(t0))
					out.ops++
					switch {
					case err != nil:
						out.failed++
						if len(out.samples) < maxSamples {
							out.samples = append(out.samples, fmt.Sprintf("watcher resolve of m%d via w%d: %v", m, op.watcher, err))
						}
					case !b.fresh(m, addr):
						out.pending = append(out.pending, answer{m: m, addr: addr, issued: issued, returned: b.started[m].Load()})
					}
				}
				time.Sleep(time.Millisecond)
			}
			wouts[ci] = out
		}(ci)
	}

	var mu sync.Mutex // guards res's move fields
	buf := tr.buffer()
	var bufMu sync.Mutex // the movers share one span buffer
	for i, ev := range sched {
		if ev.due < from || ev.due >= to {
			continue
		}
		if wait := time.Until(start.Add(ev.due - from)); wait > 0 {
			time.Sleep(wait)
		}
		wg.Add(1)
		go func(op uint64, ev moveEvent) {
			defer wg.Done()
			launched := time.Now()
			unlock := lock(ev.mobile)
			defer unlock()
			mob := c.mobiles[ev.mobile].node
			arr.reset(ev.mobile)
			b.begin(ev.mobile)
			t0 := time.Now()
			err := mob.RebindContext(ctx, c.host+":0")
			t1 := time.Now()
			addr := mob.Addr()
			if err != nil {
				b.abort(ev.mobile, addr)
				mu.Lock()
				res.moves++
				res.failed++
				res.failures = append(res.failures, fmt.Sprintf("rebind m%d: %v", ev.mobile, err))
				mu.Unlock()
				return
			}
			b.commit(ev.mobile, addr)
			var tLast time.Time
			converged := false
			timeout := time.NewTimer(convergeTimeout)
		wait:
			for {
				if tLast, converged = arr.last(ev.mobile, addr); converged {
					break
				}
				select {
				case <-arr.wake[ev.mobile]:
				case <-timeout.C:
					break wait
				}
			}
			timeout.Stop()
			t2 := time.Now()
			oracleErr := c.checkMove(ctx, ev.mobile, addr, op)
			t3 := time.Now()

			mu.Lock()
			res.moves++
			blk := blockOf(ev.due, timeline/moveBlocks, moveBlocks)
			res.rebindMs[blk] = append(res.rebindMs[blk], ms(t1.Sub(t0)))
			res.lateMs = append(res.lateMs, ms(launched.Sub(start.Add(ev.due-from))))
			switch {
			case !converged:
				res.failed++
				res.failures = append(res.failures, fmt.Sprintf("move m%d → %s: a watcher missed it", ev.mobile, addr))
			case oracleErr != nil:
				res.failed++
				res.failures = append(res.failures, oracleErr.Error())
			default:
				res.convergeMs[blk] = append(res.convergeMs[blk], ms(tLast.Sub(t0)))
				res.trail = append(res.trail, moveRecord{DueMs: ms(ev.due), Mobile: ev.mobile, RebindMs: ms(t1.Sub(t0)), ConvergeMs: ms(tLast.Sub(t0))})
			}
			mu.Unlock()

			if buf != nil {
				if !converged {
					tLast = t2
				}
				at := func(t time.Time) int64 { return int64(t.Sub(buf.tr.epoch)) }
				bufMu.Lock()
				root := buf.record("bench.move", op, 0, at(launched), at(t3))
				kids := []span{
					{Name: "live.rebind", Start: at(t0), End: at(t1)},
					{Name: "ldt.converge", Start: at(t1), End: at(tLast)},
					{Name: "oracle.discover", Start: at(t2), End: at(t3)},
				}
				for _, k := range kids {
					buf.record(k.Name, op, root, k.Start, k.End)
				}
				self := selfTime(span{Start: at(launched), End: at(t3)}, kids)
				bufMu.Unlock()
				mu.Lock()
				res.selfMs = append(res.selfMs, ms(self))
				mu.Unlock()
			}
		}(uint64(i+1), ev)
	}
	wg.Wait()
	res.elapsed += time.Since(start)
	res.usage = res.usage.plus(readUsage().since(u0))
	close(stop)
	bg.Wait()
	select {
	case err := <-renewErr:
		return fmt.Errorf("renew registrations: %w", err)
	default:
	}

	for _, o := range wouts {
		res.watchLat.merge(o.lat)
		res.watchOps += o.ops
		res.watchFailed += o.failed
		res.watchErrs = keepSamples(res.watchErrs, o.samples...)
		for _, a := range o.pending {
			stale, wrong := b.classify(a)
			if stale {
				res.stale++
			}
			if wrong {
				res.watchFailed++
				res.watchErrs = keepSamples(res.watchErrs, fmt.Sprintf("watcher resolve of m%d gave %q, never its binding", a.m, a.addr))
			}
		}
	}
	for i := range res.rebindMs {
		sort.Float64s(res.rebindMs[i])
		sort.Float64s(res.convergeMs[i])
	}
	return nil
}

// checkMove is the per-move oracle: a cold discover from a node holding
// no cache entry for the mobile must return its new address, both for the
// mobile's own key and for one of its resource keys.
func (c *cluster) checkMove(ctx context.Context, m int, addr string, op uint64) error {
	o := c.oracle.node
	res := c.keys[m*keysPerMobile+int(op%keysPerMobile)]
	got, err := o.DiscoverContext(ctx, c.mobileKey[m])
	if err != nil || got != addr {
		return fmt.Errorf("move m%d → %s: cold discover of its node key gave %q, %v", m, addr, got, err)
	}
	got, err = o.DiscoverContext(ctx, res)
	if err != nil || got != addr {
		return fmt.Errorf("move m%d → %s: cold discover of resource key %v gave %q, %v", m, addr, res, got, err)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
