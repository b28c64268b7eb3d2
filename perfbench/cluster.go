package main

import (
	"context"
	crand "crypto/rand"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"sync"
	"time"

	"bristle/internal/hashkey"
	"bristle/internal/live"
	"bristle/internal/metrics"
	"bristle/internal/transport"
	"bristle/internal/wire"
)

// The fabric every run builds, configured as bristled ships a node:
// counters, gauges and the connection pool on, capacity 4, a 30 s lease,
// replication 2, verified identities and maintenance at bristled's
// default intervals. Traffic crosses the host's loopback interface, not a
// real link, on an address of the run's own (loopbackHost).
const (
	nStationary   = 16
	nMobile       = 32
	nWatcher      = 32
	keysPerMobile = 2048
	nKeys         = nMobile * keysPerMobile
	leaseTTL      = 30 * time.Second
	nodeCapacity  = 4
	gossipEvery   = 2 * time.Second // bristled -gossip default; probes run at twice it
	setupWorkers  = 8
)

// member is one node of the cluster with its own counter registry, as
// each bristled process has.
type member struct {
	name string
	node *live.Node

	mu        sync.Mutex
	maint     *time.Timer // starts maintenance after the node's offset
	stopMaint func()
	closed    bool
}

// startMaintenance starts the node's maintenance loops after delay.
func (m *member) startMaintenance(delay time.Duration, cfg live.MaintainConfig) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.maint = time.AfterFunc(delay, func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		if !m.closed {
			m.stopMaint = m.node.StartMaintenance(cfg)
		}
	})
}

// stopMaintenance cancels a pending start or stops running loops.
func (m *member) stopMaintenance() {
	m.mu.Lock()
	m.closed = true
	if m.maint != nil {
		m.maint.Stop()
	}
	stop := m.stopMaint
	m.mu.Unlock()
	if stop != nil {
		stop()
	}
}

// cluster is the in-process TCP fabric: stationary nodes hold the
// location records; mobiles own the resource keys and move; watchers are
// registered with every mobile; each resolver serves the closed-loop
// clients of one resolve window; the oracle checks each move with a cold
// discover. Watchers, resolvers and oracle are client nodes that never
// move: they join as
// mobile nodes so that they hold no records and the stationary layer
// stays the 16-node fabric.
type cluster struct {
	seed       int64
	host       string // loopback address every node listens on
	stationary []*member
	mobiles    []*member
	watchers   []*member
	resolvers  []*member // one per resolve window
	oracle     *member

	keys      []hashkey.Key       // resource key i is owned by mobile i/keysPerMobile
	mobileKey []hashkey.Key       // node key of each mobile
	mobileIdx map[hashkey.Key]int // mobile node key → mobile index
}

func (c *cluster) all() []*member {
	out := append([]*member{}, c.stationary...)
	out = append(out, c.mobiles...)
	out = append(out, c.watchers...)
	out = append(out, c.resolvers...)
	return append(out, c.oracle)
}

// resourceKeys derives the run's 65,536 resource keys from the seed.
func resourceKeys(seed int64) ([]hashkey.Key, error) {
	keys := make([]hashkey.Key, nKeys)
	seen := make(map[hashkey.Key]bool, nKeys)
	for i := range keys {
		k := hashkey.FromName(fmt.Sprintf("perfbench/%d/res/%d", seed, i))
		if seen[k] {
			return nil, fmt.Errorf("resource key collision at %d", i)
		}
		seen[k] = true
		keys[i] = k
	}
	return keys, nil
}

// loopbackHost picks a random address in 127.0.0.0/8 for one run. A
// mobile that moves leaves its old address in its peers' membership
// views, and the kernel hands its port to the next listener that asks;
// were that a node of another process on the same loopback address, the
// peers' gossip would reach it and carry that process's nodes into this
// cluster. Each run's nodes therefore listen on an address of their own.
// The three octets stay within 100–199 so every address has the same
// length on the wire.
func loopbackHost() (string, error) {
	var b [3]byte
	if _, err := crand.Read(b[:]); err != nil {
		return "", fmt.Errorf("loopback address: %w", err)
	}
	return fmt.Sprintf("127.%d.%d.%d", 100+int(b[0])%100, 100+int(b[1])%100, 100+int(b[2])%100), nil
}

func newMember(seed int64, host, name string, mobile bool) (*member, error) {
	id := hashkey.IdentityFromSeed([]byte(fmt.Sprintf("perfbench|%d|%s", seed, name)))
	opts := []live.Option{
		live.WithCapacity(nodeCapacity),
		live.WithLease(leaseTTL),
		live.WithCounters(metrics.NewCounters()),
		live.WithGauges(metrics.NewGauges()),
		live.WithIdentity(id),
		live.WithVerifiedJoins(),
	}
	if mobile {
		opts = append(opts, live.WithMobile())
	}
	n, err := live.New(name, &transport.TCP{}, opts...)
	if err != nil {
		return nil, fmt.Errorf("new %s: %w", name, err)
	}
	if err := n.Start(host + ":0"); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	return &member{name: name, node: n}, nil
}

// parallel runs fn(0..n-1) on at most workers goroutines and returns the
// first error.
func parallel(n, workers int, fn func(i int) error) error {
	work := make(chan int)
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for w := 0; w < workers && w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if err := fn(i); err != nil {
					errs <- err
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	close(errs)
	return <-errs
}

// buildCluster boots, joins, publishes, registers and warms the whole
// fabric. On error everything already started is closed.
func buildCluster(ctx context.Context, seed int64, host string, keys []hashkey.Key) (c *cluster, err error) {
	c = &cluster{seed: seed, host: host, keys: keys, mobileIdx: make(map[hashkey.Key]int)}
	defer func() {
		if err != nil {
			c.close()
			c = nil
		}
	}()
	// The stationary core boots first, joins through s0 and gossips to a
	// full view, so every later joiner receives all 16 in its join reply.
	for i := 0; i < nStationary; i++ {
		m, err := newMember(seed, host, fmt.Sprintf("s%d", i), false)
		if err != nil {
			return c, err
		}
		c.stationary = append(c.stationary, m)
	}
	boot := c.stationary[0].node.Addr()
	for _, m := range c.stationary[1:] {
		if err := m.node.JoinViaContext(ctx, boot); err != nil {
			return c, fmt.Errorf("join %s: %w", m.name, err)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	if err := c.gossipStationary(rng); err != nil {
		return c, err
	}

	names := make([]string, 0, nMobile+nWatcher+2)
	for i := 0; i < nMobile; i++ {
		names = append(names, fmt.Sprintf("m%d", i))
	}
	for i := 0; i < nWatcher; i++ {
		names = append(names, fmt.Sprintf("w%d", i))
	}
	for i := 0; i < resolveWindows; i++ {
		names = append(names, fmt.Sprintf("resolver%d", i))
	}
	names = append(names, "oracle")
	clients := make([]*member, len(names))
	var mu sync.Mutex // guards clients while the workers fill it
	err = parallel(len(names), setupWorkers, func(i int) error {
		m, err := newMember(seed, host, names[i], true)
		if err != nil {
			return err
		}
		mu.Lock()
		clients[i] = m
		mu.Unlock()
		if err := m.node.JoinViaContext(ctx, c.stationary[i%nStationary].node.Addr()); err != nil {
			return fmt.Errorf("join %s: %w", m.name, err)
		}
		if got := stationaryKnown(m.node); got != nStationary {
			return fmt.Errorf("%s knows %d of %d stationary nodes after joining", m.name, got, nStationary)
		}
		return nil
	})
	for _, m := range clients {
		if m == nil {
			continue
		}
		switch {
		case strings.HasPrefix(m.name, "m"):
			c.mobiles = append(c.mobiles, m)
		case strings.HasPrefix(m.name, "w"):
			c.watchers = append(c.watchers, m)
		case strings.HasPrefix(m.name, "resolver"):
			c.resolvers = append(c.resolvers, m)
		default:
			c.oracle = m
		}
	}
	if err != nil {
		return c, err
	}
	for i, m := range c.mobiles {
		c.mobileKey = append(c.mobileKey, m.node.Key())
		c.mobileIdx[m.node.Key()] = i
	}

	err = parallel(nMobile, setupWorkers, func(i int) error {
		m := c.mobiles[i]
		m.node.OwnKeys(keys[i*keysPerMobile : (i+1)*keysPerMobile]...)
		if err := m.node.PublishContext(ctx); err != nil {
			return fmt.Errorf("publish %s: %w", m.name, err)
		}
		return nil
	})
	if err != nil {
		return c, err
	}
	if err := c.registerWatchers(ctx, nil); err != nil {
		return c, err
	}
	// Daemons started one by one do not tick in step: each node's
	// maintenance starts at its own offset within the first quarter lease,
	// which still renews every record well before its lease lapses.
	for _, m := range c.all() {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d|maint|%s", seed, m.name)
		r := rand.New(rand.NewSource(int64(h.Sum64())))
		m.startMaintenance(time.Duration(r.Int63n(int64(leaseTTL/4))), live.MaintainConfig{
			GossipInterval: gossipEvery,
			ProbeInterval:  2 * gossipEvery,
			Rand:           r,
		})
	}
	// A long-running resolver holds warm sessions to the stationary layer;
	// opening them is set-up, not part of any measured operation.
	for _, m := range append(append([]*member(nil), c.resolvers...), c.oracle) {
		for _, s := range c.stationary {
			if err := m.node.PingContext(ctx, s.node.Addr()); err != nil {
				return c, fmt.Errorf("warm %s → %s: %w", m.name, s.name, err)
			}
		}
	}
	return c, nil
}

func stationaryKnown(n *live.Node) int {
	k := 0
	for _, e := range n.KnownPeers() {
		if !e.Mobile {
			k++
		}
	}
	return k
}

// gossipStationary runs anti-entropy rounds until every stationary node
// knows all of them, bounded at 16 rounds.
func (c *cluster) gossipStationary(rng *rand.Rand) error {
	for round := 0; round < 16; round++ {
		full := true
		for _, m := range c.stationary {
			if _, err := m.node.GossipOnce(rng); err != nil {
				return fmt.Errorf("gossip %s: %w", m.name, err)
			}
			if stationaryKnown(m.node) != nStationary {
				full = false
			}
		}
		if full {
			return nil
		}
	}
	return errors.New("stationary membership never converged")
}

// registerWatchers registers every watcher with every mobile at its
// current address. Registrations are leased, so a run longer than the
// lease renews them the way bristled -watch does. lock, when set, is
// held per mobile so that no move of that mobile runs concurrently.
func (c *cluster) registerWatchers(ctx context.Context, lock func(m int) func()) error {
	for mi, mob := range c.mobiles {
		var unlock func()
		if lock != nil {
			unlock = lock(mi)
		}
		addr := mob.node.Addr()
		err := parallel(nWatcher, setupWorkers, func(i int) error {
			w := c.watchers[i]
			if err := w.node.RegisterWithContext(ctx, addr); err != nil {
				return fmt.Errorf("register %s with %s: %w", w.name, mob.name, err)
			}
			return nil
		})
		if unlock != nil {
			unlock()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// close stops maintenance everywhere, then closes every node.
func (c *cluster) close() {
	ms := c.all()
	for _, m := range ms {
		if m != nil {
			m.stopMaintenance()
		}
	}
	var wg sync.WaitGroup
	for _, m := range ms {
		if m == nil {
			continue
		}
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			m.node.Close()
		}(m)
	}
	wg.Wait()
}

// stationaryEntries returns the stationary directory as n sees it.
func stationaryEntries(n *live.Node) []wire.Entry {
	var out []wire.Entry
	for _, e := range n.KnownPeers() {
		if !e.Mobile {
			out = append(out, e)
		}
	}
	return out
}

// foreignStationary lists every stationary entry a node knows that is
// not one of the cluster's own stationary nodes at its address. Replica
// selection runs over these views, so a foreign entry sends publishes
// and discoveries out of the cluster.
func (c *cluster) foreignStationary() []string {
	own := make(map[hashkey.Key]string, len(c.stationary))
	for _, s := range c.stationary {
		own[s.node.Key()] = s.node.Addr()
	}
	var out []string
	for _, m := range c.all() {
		for _, e := range stationaryEntries(m.node) {
			if own[e.Key] != e.Addr {
				out = append(out, fmt.Sprintf("%s knows stationary %v at %s, not a node of this cluster", m.name, e.Key, e.Addr))
			}
		}
	}
	return out
}

// roleCounts holds counter values by role, then by counter name.
type roleCounts = map[string]map[string]uint64

// roleCounters sums each role's counter registries. active, when set, is
// the resolver serving the current resolve window: it alone is the role
// "resolver", and the other resolvers are "resolver.idle".
func (c *cluster) roleCounters(active *member) roleCounts {
	out := make(roleCounts)
	add := func(role string, ms ...*member) {
		sum := make(map[string]uint64)
		for _, m := range ms {
			for k, v := range m.node.Stats().Counters {
				sum[k] += v
			}
		}
		out[role] = sum
	}
	add("stationary", c.stationary...)
	add("mobile", c.mobiles...)
	add("watcher", c.watchers...)
	var idle []*member
	for _, r := range c.resolvers {
		if r != active {
			idle = append(idle, r)
		}
	}
	if active != nil {
		add("resolver", active)
	}
	add("resolver.idle", idle...)
	add("oracle", c.oracle)
	return out
}

// counterDelta returns the counters' growth over one or more windows,
// given as (before, after) pairs, for every counter of every role.
func counterDelta(windows ...[2]roleCounts) roleCounts {
	out := make(roleCounts)
	for _, w := range windows {
		before, after := w[0], w[1]
		for role, cs := range after {
			if out[role] == nil {
				out[role] = make(map[string]uint64)
			}
			for k, v := range cs {
				out[role][k] += v - before[role][k]
			}
		}
	}
	return out
}

// sumRoles totals one counter over every role.
func sumRoles(cs roleCounts, name string) uint64 {
	var t uint64
	for _, m := range cs {
		t += m[name]
	}
	return t
}

// conservation checks the counter laws the live stack promises: on the
// resolver every cache lookup is exactly one of hit, stale, negative or
// miss; on every node every join request is accepted or rejected for one
// named reason.
func conservationErrors(name string, cs map[string]uint64) []string {
	var errs []string
	if lk := cs["loccache.lookups"]; lk != cs["loccache.hit"]+cs["loccache.stale"]+cs["loccache.negative"]+cs["loccache.miss"] {
		errs = append(errs, fmt.Sprintf("%s: loccache.lookups %d ≠ hit %d + stale %d + negative %d + miss %d",
			name, lk, cs["loccache.hit"], cs["loccache.stale"], cs["loccache.negative"], cs["loccache.miss"]))
	}
	var rejected uint64
	for k, v := range cs {
		if strings.HasPrefix(k, "join.rejected.") {
			rejected += v
		}
	}
	if cs["join.requests"] != cs["join.accepted"]+rejected {
		errs = append(errs, fmt.Sprintf("%s: join.requests %d ≠ accepted %d + rejected %d",
			name, cs["join.requests"], cs["join.accepted"], rejected))
	}
	return errs
}
