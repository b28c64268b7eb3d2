package live

// The black-box chaos acceptance scenarios (full ring under loss/delay/
// partition, clean-transport control) moved to chaos_harness_test.go,
// rebuilt on internal/harness. This file keeps the white-box tests that
// need unexported access (ownersOf, suspect) and the minimal ring
// bootstrap they share.

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"bristle/internal/hashkey"
	"bristle/internal/metrics"
	"bristle/internal/transport"
)

// chaosNodeConfig returns aggressive-but-bounded resilience settings so
// chaos tests converge in seconds: short per-attempt socket deadlines,
// several jittered retries, and a breaker that trips (and probes) fast.
func chaosNodeConfig(name string, mobile bool, counters *metrics.Counters) Config {
	return Config{
		Name:               name,
		Capacity:           4,
		Mobile:             mobile,
		Replication:        2,
		RequestTimeout:     250 * time.Millisecond,
		RetryAttempts:      6,
		RetryBase:          5 * time.Millisecond,
		RetryMax:           50 * time.Millisecond,
		SuspicionThreshold: 3,
		SuspicionCooldown:  150 * time.Millisecond,
		Counters:           counters,
	}
}

// startChaosRing boots one live node per name, each behind its own named
// endpoint of a Faulty transport (clean at bootstrap — tests switch chaos
// on afterwards with SetConfig), joined via the first name with full
// membership gossiped.
func startChaosRing(t *testing.T, faulty *transport.Faulty, names []string, mobile map[string]bool, counters *metrics.Counters) (map[string]*Node, func()) {
	t.Helper()
	nodes := make(map[string]*Node, len(names))
	var started []*Node
	for _, name := range names {
		nd := NewNode(chaosNodeConfig(name, mobile[name], counters), faulty.Endpoint(name))
		if err := nd.Start(""); err != nil {
			t.Fatalf("start %s: %v", name, err)
		}
		nodes[name] = nd
		started = append(started, nd)
	}
	boot := started[0]
	for _, nd := range started[1:] {
		if err := nd.JoinViaContext(context.Background(), boot.Addr()); err != nil {
			t.Fatalf("join: %v", err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 4; round++ {
		for _, nd := range started {
			if _, err := nd.GossipOnce(rng); err != nil {
				t.Fatalf("gossip: %v", err)
			}
		}
	}
	for name, nd := range started {
		if got := len(nd.KnownPeers()); got != len(names) {
			t.Fatalf("node %v knows %d peers, want %d", name, got, len(names))
		}
	}
	return nodes, func() {
		for _, nd := range started {
			nd.Close()
		}
	}
}

// TestBreakerTripsFastFailsAndRecovers drives the suspicion circuit
// end to end on a clean transport: consecutive failures trip it, tripped
// peers fail fast without network I/O, and a successful probe after the
// cooldown readmits the peer.
func TestBreakerTripsFastFailsAndRecovers(t *testing.T) {
	mem := transport.NewMem()
	counters := metrics.NewCounters()
	cfg := Config{
		Name:               "a",
		Capacity:           2,
		RequestTimeout:     200 * time.Millisecond,
		RetryAttempts:      2,
		RetryBase:          time.Millisecond,
		RetryMax:           2 * time.Millisecond,
		SuspicionThreshold: 2,
		SuspicionCooldown:  300 * time.Millisecond,
		Counters:           counters,
	}
	a := NewNode(cfg, mem)
	if err := a.Start(""); err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	b := NewNode(Config{Name: "b", Capacity: 2}, mem)
	if err := b.Start("b-home"); err != nil {
		t.Fatal(err)
	}
	if err := a.Ping("b-home"); err != nil {
		t.Fatalf("healthy ping: %v", err)
	}
	b.Close()

	// Two consecutive failed exchanges reach the threshold.
	for i := 0; i < 2; i++ {
		if err := a.Ping("b-home"); err == nil {
			t.Fatal("ping to dead peer succeeded")
		}
	}
	if got := counters.Get("breaker.trips"); got != 1 {
		t.Fatalf("breaker.trips = %d, want 1", got)
	}
	if s := a.Stats().Suspects; len(s) != 1 || s[0] != "b-home" {
		t.Fatalf("Suspects = %v", s)
	}

	// Fail fast: before the cooldown no I/O happens at all.
	start := time.Now()
	if err := a.Ping("b-home"); !errors.Is(err, ErrPeerSuspect) {
		t.Fatalf("err = %v, want ErrPeerSuspect", err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("fast-fail took %v", elapsed)
	}
	if counters.Get("breaker.fastfail") == 0 {
		t.Fatal("fast-fail not counted")
	}

	// The peer comes back at the same address; after the cooldown the
	// next call is admitted as a probe and closes the breaker.
	b2 := NewNode(Config{Name: "b2", Capacity: 2}, mem)
	if err := b2.Start("b-home"); err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	time.Sleep(320 * time.Millisecond)
	if err := a.Ping("b-home"); err != nil {
		t.Fatalf("probe after recovery: %v", err)
	}
	if s := a.Stats().Suspects; len(s) != 0 {
		t.Fatalf("breaker still open after successful probe: %v", s)
	}
	if counters.Get("breaker.probes") == 0 || counters.Get("breaker.closes") == 0 {
		t.Fatalf("probe/close not counted: %s", counters)
	}
}

// TestDiscoverSuspicionAwareReplicaOrder drives latency- and
// suspicion-aware replica selection end to end: with per-link latencies
// injected and RTT estimates warmed, discovery leads with the measured
// nearest replica; when that replica dies, discovery falls over to the
// next-nearest, the dead one's breaker trips, and from then on the
// suspect replica sorts last regardless of its (stale, attractive) RTT —
// so discovery doesn't pay its timeout again.
func TestDiscoverSuspicionAwareReplicaOrder(t *testing.T) {
	counters := metrics.NewCounters()
	// Per-directed-link latencies keyed by endpoint names, installed after
	// the ring bootstraps (the hook reads the map on every frame).
	var latMu sync.Mutex
	lat := map[[2]string]time.Duration{}
	faulty := transport.NewFaulty(transport.NewMem(), transport.FaultConfig{
		Seed: 3,
		Latency: func(from, to string) time.Duration {
			latMu.Lock()
			defer latMu.Unlock()
			return lat[[2]string{from, to}]
		},
	})
	names := []string{"s1", "s2", "s3", "s4", "mob"}
	nodes, cleanup := startChaosRing(t, faulty, names, map[string]bool{"mob": true}, counters)
	defer cleanup()
	mob := nodes["mob"]
	if err := mob.Publish(); err != nil {
		t.Fatal(err)
	}

	byKey := map[hashkey.Key]*Node{}
	for _, nd := range nodes {
		byKey[nd.Key()] = nd
	}
	owners, err := mob.ownersOf(mob.Key(), 2)
	if err != nil {
		t.Fatal(err)
	}
	// Designate the replica set's near/far roles by injecting latency:
	// whatever order ownersOf returned, owners[0] becomes the low-RTT
	// replica from the prober's vantage point and owners[1] the high-RTT
	// one.
	near, far := owners[0], owners[1]
	var prober *Node
	for _, name := range []string{"s1", "s2", "s3", "s4"} {
		nd := nodes[name]
		if nd.Key() != near.Key && nd.Key() != far.Key {
			prober = nd
			break
		}
	}
	if prober == nil {
		t.Fatal("no stationary prober outside the replica set")
	}
	latMu.Lock()
	lat[[2]string{prober.cfg.Name, byKey[near.Key].cfg.Name}] = 2 * time.Millisecond
	lat[[2]string{prober.cfg.Name, byKey[far.Key].cfg.Name}] = 25 * time.Millisecond
	latMu.Unlock()
	// Warm the prober's estimators over ordinary exchanges (pings — no
	// probe machinery). Several rounds, because bootstrap-era exchanges
	// already seeded the EWMAs at in-memory-transport speed and the
	// injected latency has to pull them up.
	for round := 0; round < 8; round++ {
		for _, owner := range owners {
			if err := prober.Ping(owner.Addr); err != nil {
				t.Fatalf("warm ping: %v", err)
			}
		}
	}
	nearEst, _, okNear := prober.rtt.estimate(near.Addr)
	farEst, _, okFar := prober.rtt.estimate(far.Addr)
	if !okNear || !okFar || nearEst < time.Millisecond || farEst <= nearEst {
		t.Fatalf("warmed estimates near=%v far=%v, want 1ms <= near < far", nearEst, farEst)
	}

	// With both replicas measured, ordering is deterministic: the
	// low-latency replica leads.
	ordered, err := prober.ownersOf(mob.Key(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if ordered[0].Key != near.Key {
		t.Fatalf("latency-aware order does not lead with the nearest replica: %v", ordered[0].Key)
	}

	byKey[near.Key].Close() // the nearest replica dies

	// Each discovery tries the (still lowest-RTT, not yet suspect) dead
	// replica first and falls over to the next-nearest; after
	// SuspicionThreshold failed exchanges the near breaker trips.
	for i := 0; i < 3; i++ {
		addr, err := prober.Discover(mob.Key())
		if err != nil {
			t.Fatalf("discover %d with dead nearest replica: %v", i, err)
		}
		if addr != mob.Addr() {
			t.Fatalf("discover %d resolved %s", i, addr)
		}
	}
	if !prober.suspect(near.Addr) {
		t.Fatal("dead nearest replica never became suspect")
	}
	// Suspicion outranks RTT: the dead replica's estimate is still the
	// most attractive, but the suspect sorts last.
	reordered, err := prober.ownersOf(mob.Key(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if reordered[0].Key != far.Key {
		t.Fatalf("suspicion-aware order still leads with the dead replica: %v", reordered[0].Key)
	}

	// With the suspect deprioritized (and failing fast when reached), the
	// next discovery costs exactly one successful exchange.
	before := counters.Get("rpc.attempts")
	if _, err := prober.Discover(mob.Key()); err != nil {
		t.Fatal(err)
	}
	if got := counters.Get("rpc.attempts") - before; got != 1 {
		t.Fatalf("suspicion-aware discovery used %d attempts, want 1", got)
	}
	// The Stats RTT table surfaces both estimates, suspect flag included.
	stats := prober.Stats()
	found := map[string]PeerRTT{}
	for _, pr := range stats.PeerRTTs {
		found[pr.Addr] = pr
	}
	if pr, ok := found[near.Addr]; !ok || !pr.Suspect || pr.Samples == 0 {
		t.Fatalf("near peer missing or wrong in Stats.PeerRTTs: %+v", pr)
	}
	if pr, ok := found[far.Addr]; !ok || pr.Suspect || pr.RTT < 20*time.Millisecond {
		t.Fatalf("far peer missing or wrong in Stats.PeerRTTs: %+v", pr)
	}
}
