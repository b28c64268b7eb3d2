package live

// This file is the address-resolution hot path. The paper gives a mobile
// node two ways to be found: early binding (it pushes <key, addr> to
// registered correspondents through its dissemination tree) and late
// binding (a correspondent asks the location repository via _discovery,
// Figure 2). Both feed the same lease-aware sharded cache
// (internal/loccache), and ResolveContext reads it first:
//
//   Fresh    → answer from the lease; no lock shared with the protocol
//              path, no network.
//   Stale    → answer optimistically and re-resolve in the background
//              (stale-while-revalidate); steady-state senders never
//              block on discovery.
//   Negative → a recent _discovery already proved the record absent;
//              fail fast with ErrNotFound instead of re-polling every
//              replica.
//   Miss     → go to the network, but through a singleflight group:
//              concurrent misses for one key share a single _discovery
//              RPC (counted as loccache.coalesced).
//
// DiscoverContext remains the always-network form (late binding forced);
// it now write-throughs its answer — with the replica's remaining lease —
// into the same cache, so reactive results expire client-side exactly
// like pushed ones.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"bristle/internal/hashkey"
	"bristle/internal/loccache"
	"bristle/internal/wire"
)

// ResolveContext resolves key's current address, cache first. A fresh
// lease answers immediately; a stale one answers while a background
// refresh re-resolves; a cache miss goes to the network through a
// singleflight group so N concurrent misses cost one _discovery. The
// context bounds only this caller's wait — an in-flight discovery keeps
// running for its other waiters.
func (n *Node) ResolveContext(ctx context.Context, key hashkey.Key) (string, error) {
	addr, state := n.loc.Lookup(key)
	switch state {
	case loccache.Fresh:
		return addr, nil
	case loccache.Negative:
		return "", ErrNotFound
	case loccache.Stale:
		n.launchRefresh(key)
		return addr, nil
	}
	addr, shared, err := n.flights.Do(ctx, key, func() (string, error) {
		return n.flightDiscover(key, false)
	})
	if shared {
		n.count("loccache.coalesced")
	}
	return addr, err
}

// flightDiscover is the body of one singleflight discovery: a detached
// context (bounded by the node's retry budget, not any one waiter's
// deadline) so the flight outlives impatient waiters, then one network
// resolution written through the cache.
//
// A demand-miss flight (revalidate=false) double-checks the cache first:
// a caller can miss, lose its timeslice, and only start its flight after
// a concurrent flight for the same key already completed — the re-lookup
// turns that duplicate into a cache answer instead of a second
// _discovery. Refresh flights (revalidate=true) exist precisely to
// replace a still-cached entry, so they always go to the network.
func (n *Node) flightDiscover(key hashkey.Key, revalidate bool) (string, error) {
	if !revalidate {
		switch addr, state := n.loc.Lookup(key); state {
		case loccache.Fresh:
			return addr, nil
		case loccache.Negative:
			return "", ErrNotFound
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.RetryBudget)
	defer cancel()
	return n.discoverAndFill(ctx, key)
}

// discoverAndFill performs one network discovery and records the outcome
// in the cache: a found address under its remaining lease, a definitive
// miss as a negative entry. Transport failures cache nothing — absence
// of evidence is not evidence of absence.
func (n *Node) discoverAndFill(ctx context.Context, key hashkey.Key) (string, error) {
	n.count("resolve.discoveries")
	addr, ttl, epoch, err := n.discoverNetwork(ctx, key)
	switch {
	case errors.Is(err, ErrNotFound):
		n.loc.PutNegative(key)
		return "", err
	case err != nil:
		return "", err
	}
	// Epoch-aware fill: if an LDT push raced this discovery with a newer
	// binding, the cache keeps the push and this stale answer is dropped
	// on the floor (the caller still gets it once; the next resolve hits
	// the newer cached address).
	n.loc.PutEpoch(key, addr, ttl, epoch)
	return addr, nil
}

// launchRefresh starts a background re-resolution of key unless one is
// already in flight (or the node is closing). Reports whether a flight
// was started.
func (n *Node) launchRefresh(key hashkey.Key) bool {
	if n.closed.Load() {
		return false
	}
	started := n.flights.Launch(key, func() (string, error) {
		return n.flightDiscover(key, true)
	})
	if started {
		n.count("loccache.refreshes")
	}
	return started
}

// refreshExpiring re-resolves up to topK most-recently-used cached
// entries whose lease lapses within window — the early-binding refresher
// step: renew the working set's bindings before they expire so the hot
// path keeps answering from fresh leases. Returns how many refresh
// flights were started.
func (n *Node) refreshExpiring(topK int, window time.Duration) int {
	started := 0
	for _, cand := range n.loc.ExpiringSoon(topK, window) {
		if n.launchRefresh(cand.Key) {
			started++
		}
	}
	return started
}

// DiscoverContext resolves key's current address through the location
// layer, always over the network (forced late binding). The answer —
// including the replica's remaining lease — is written through the
// location cache, so a subsequent ResolveContext answers locally until
// the lease lapses. Prefer ResolveContext on hot paths.
func (n *Node) DiscoverContext(ctx context.Context, key hashkey.Key) (string, error) {
	addr, ttl, epoch, err := n.discoverNetwork(ctx, key)
	if err != nil {
		return "", err
	}
	n.loc.PutEpoch(key, addr, ttl, epoch)
	return addr, nil
}

// discoverNetwork asks the record's replicas for key's address, falling
// over across them (§2.3.2) in suspicion-aware order. The replicas are
// tried sequentially on purpose: the common case is answered by the
// first healthy replica for the cost of one exchange, and the ordering
// (healthy first) already bounds the tail. Returns the address, the
// remaining lease the serving replica reported (0 = no lease), and the
// publish epoch the record was bound under.
func (n *Node) discoverNetwork(ctx context.Context, key hashkey.Key) (string, time.Duration, uint64, error) {
	owners, err := n.ownersOf(key, n.cfg.Replication)
	if err != nil {
		return "", 0, 0, err
	}
	var lastErr error = ErrNotFound
	for _, owner := range owners {
		var resp *wire.Message
		if owner.Key == n.key {
			resp = n.handleDiscover(&wire.Message{Type: wire.TDiscover, Key: key})
		} else {
			resp, err = n.request(ctx, owner.Addr, &wire.Message{Type: wire.TDiscover, Key: key})
			if err != nil {
				lastErr = fmt.Errorf("live: discover via %s: %w", owner.Addr, err)
				continue
			}
		}
		if resp.Type != wire.TDiscoverResp || !resp.Found {
			continue
		}
		ttl := time.Duration(resp.Self.TTLMilli) * time.Millisecond
		return resp.Self.Addr, ttl, resp.Self.Epoch, nil
	}
	if lastErr != ErrNotFound {
		return "", 0, 0, lastErr
	}
	return "", 0, 0, ErrNotFound
}
