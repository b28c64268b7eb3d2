package live

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bristle/internal/metrics"
	"bristle/internal/transport"
)

// TestRebindUnderConcurrentResolvers races a resolver storm against a
// live rebind: while goroutines hammer ResolveContext for a mobile's
// key, the mobile relocates. Every answer the storm observes must be an
// address the key actually held (old or new — never garbage, never
// not-found), and once the old lease lapses every resolver must
// converge on the post-move address. Run under -race this also proves
// the cache/rebind interleaving is data-race clean.
func TestRebindUnderConcurrentResolvers(t *testing.T) {
	const leaseTTL = 400 * time.Millisecond

	mem := transport.NewMem()
	ctrs := metrics.NewCounters()
	mk := func(name string, mobile bool) *Node {
		n := NewNode(Config{
			Name:        name,
			Capacity:    4,
			Mobile:      mobile,
			LeaseTTL:    leaseTTL,
			Replication: 2,
			Counters:    ctrs,
		}, mem)
		if err := n.Start(""); err != nil {
			t.Fatalf("start %s: %v", name, err)
		}
		t.Cleanup(func() { n.Close() })
		return n
	}
	s1, s2, s3 := mk("s1", false), mk("s2", false), mk("s3", false)
	mob := mk("mob", true)
	stationary := []*Node{s1, s2, s3}
	for _, n := range []*Node{s2, s3, mob} {
		if err := n.JoinViaContext(context.Background(), s1.Addr()); err != nil {
			t.Fatalf("join %s: %v", n.cfg.Name, err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 6; round++ {
		for _, n := range []*Node{s1, s2, s3, mob} {
			if _, err := n.GossipOnce(rng); err != nil {
				t.Fatalf("gossip: %v", err)
			}
		}
	}
	if err := mob.Publish(); err != nil {
		t.Fatalf("publish: %v", err)
	}
	oldAddr := mob.Addr()

	// newAddr is unset until the rebind lands; resolvers poll it to know
	// when convergence becomes possible.
	var newAddr atomic.Value

	const resolvers = 24
	var wg sync.WaitGroup
	results := make(chan map[string]bool, resolvers) // per-goroutine set of observed addrs
	errs := make(chan error, resolvers)
	// Convergence bound: the old binding may legally be served until its
	// lease lapses; past that, one refresh must land the new address. The
	// extra headroom absorbs scheduler jitter under -race, not protocol
	// slack.
	deadline := time.Now().Add(leaseTTL + 5*time.Second)

	for i := 0; i < resolvers; i++ {
		from := stationary[i%len(stationary)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := make(map[string]bool)
			defer func() { results <- seen }()
			for time.Now().Before(deadline) {
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				addr, err := from.ResolveContext(ctx, mob.Key())
				cancel()
				if err != nil {
					errs <- err
					return
				}
				seen[addr] = true
				if na := newAddr.Load(); na != nil && addr == na.(string) {
					return // converged
				}
				time.Sleep(time.Millisecond)
			}
			errs <- context.DeadlineExceeded // never converged
		}()
	}

	// Let the storm warm every cache onto the old address, then move.
	time.Sleep(50 * time.Millisecond)
	if err := mob.RebindContext(context.Background(), ""); err != nil {
		t.Fatalf("rebind: %v", err)
	}
	if got := mob.Addr(); got == oldAddr {
		t.Fatalf("rebind kept address %s", got)
	}
	newAddr.Store(mob.Addr())

	wg.Wait()
	close(errs)
	close(results)
	for err := range errs {
		t.Errorf("resolver: %v", err)
	}
	final := newAddr.Load().(string)
	for seen := range results {
		if !seen[final] {
			t.Errorf("resolver finished without observing the new address (saw %v)", seen)
		}
		for addr := range seen {
			if addr != oldAddr && addr != final {
				t.Errorf("resolver observed %q, an address the key never held (valid: %q, %q)", addr, oldAddr, final)
			}
		}
	}
	t.Logf("storm: %d lookups, %d discoveries, %d coalesced",
		ctrs.Get("loccache.lookups"), ctrs.Get("resolve.discoveries"), ctrs.Get("loccache.coalesced"))
}
