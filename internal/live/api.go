package live

// This file is the node's consolidated public surface. The
// context-taking forms are canonical — they observe the caller's
// cancellation and deadline end to end, through retries, backoff pauses,
// and pooled exchanges — and every suffix-less name below is a one-line
// alias over context.Background(). Introspection is likewise
// one method: Stats returns everything the ad-hoc accessors used to
// expose (and more) as a single coherent snapshot.

import (
	"context"
	"fmt"

	"bristle/internal/hashkey"
	"bristle/internal/loccache"
	"bristle/internal/wire"
)

// Resolve is an alias for ResolveContext (resolve.go, the canonical
// form) with the background context.
func (n *Node) Resolve(key hashkey.Key) (string, error) {
	return n.ResolveContext(context.Background(), key)
}

// Discover is an alias for DiscoverContext (resolve.go, the canonical
// form) with the background context.
func (n *Node) Discover(key hashkey.Key) (string, error) {
	return n.DiscoverContext(context.Background(), key)
}

// Publish is an alias for PublishContext (publish.go, the canonical
// form) with the background context.
func (n *Node) Publish() error { return n.PublishContext(context.Background()) }

// JoinViaContext contacts a bootstrap node, announces this node, and
// adopts the returned membership. With an Identity configured the join
// carries a signed proof of the node's self-certifying key (join.go);
// with JoinAsObserver it requests the stationary directory without being
// ingested into the bootstrap's ring membership.
func (n *Node) JoinViaContext(ctx context.Context, bootstrapAddr string) error {
	req := &wire.Message{Type: wire.TJoin, Self: n.SelfEntry(), Observer: n.cfg.JoinAsObserver}
	n.joinProof(req)
	resp, err := n.request(ctx, bootstrapAddr, req)
	if err != nil {
		return fmt.Errorf("live: join via %s: %w", bootstrapAddr, err)
	}
	if resp.Type != wire.TJoinResp || !resp.Found {
		return fmt.Errorf("live: join rejected by %s", bootstrapAddr)
	}
	for _, e := range resp.Entries {
		n.members.merge(n.key, e)
	}
	return nil
}

// RegisterWithContext records this node's interest in the movement of the
// node currently reachable at targetAddr.
func (n *Node) RegisterWithContext(ctx context.Context, targetAddr string) error {
	resp, err := n.request(ctx, targetAddr, &wire.Message{Type: wire.TRegister, Self: n.SelfEntry()})
	if err != nil {
		return fmt.Errorf("live: register with %s: %w", targetAddr, err)
	}
	if resp.Type != wire.TRegisterAck || !resp.Found {
		return fmt.Errorf("live: registration rejected by %s", targetAddr)
	}
	return nil
}

// Ping is an alias for PingContext (the canonical form) with the
// background context.
func (n *Node) Ping(addr string) error { return n.PingContext(context.Background(), addr) }

// PingContext checks liveness of a peer address.
func (n *Node) PingContext(ctx context.Context, addr string) error {
	resp, err := n.request(ctx, addr, &wire.Message{Type: wire.TPing})
	if err != nil {
		return err
	}
	if resp.Type != wire.TPong {
		return fmt.Errorf("live: unexpected ping response %v", resp.Type)
	}
	return nil
}

// CachedAddr returns this node's cached address for key, if its lease is
// still fresh. A read-only probe: it neither promotes the entry nor
// records cache metrics.
func (n *Node) CachedAddr(key hashkey.Key) (string, bool) {
	addr, state := n.loc.Peek(key)
	if state != loccache.Fresh {
		return "", false
	}
	return addr, true
}

// Stats is a coherent point-in-time snapshot of a node's observable
// state — identity, binding, table sizes, suspicion, and the counter
// registry — replacing the former piecemeal accessors (Epoch,
// PoolSessions, CacheEntries, Suspects).
type Stats struct {
	// Key is the node's hash key; Addr and Epoch its current binding.
	Key   hashkey.Key
	Addr  string
	Epoch uint64
	// Peers is the size of the membership view (including self).
	Peers int
	// Registrations is the size of R(self), including not-yet-swept
	// lapsed leases.
	Registrations int
	// OwnedKeys counts the resource keys published at this node's address
	// beyond its identity key.
	OwnedKeys int
	// StoreRecords counts the location records this node holds as an
	// owner/replica (including not-yet-lapsed leases).
	StoreRecords int
	// CacheEntries counts the location cache's entries.
	CacheEntries int
	// PoolSessions counts the open pooled peer sessions.
	PoolSessions int
	// Suspects lists the peer addresses whose circuit breakers are open
	// or half-open — the peers this node currently routes around. Sorted.
	Suspects []string
	// Region is the node's configured locality label ("" when unset).
	Region string
	// PeerRTTs is the per-peer round-trip table behind latency-ordered
	// replica selection: each known peer's smoothed RTT (an EWMA over this
	// node's own exchanges with it — no probe traffic), its sample count,
	// and whether its breaker currently marks it suspect. Ascending by RTT.
	PeerRTTs []PeerRTT
	// Counters is a snapshot of the node's counter registry (empty when
	// no Counters were configured).
	Counters map[string]uint64
}

// Stats returns a snapshot of the node's observable state. Safe to call
// concurrently with any operation; each field is individually consistent.
func (n *Node) Stats() Stats {
	b := n.self.Load()
	s := Stats{
		Key:           n.key,
		Addr:          b.addr,
		Epoch:         b.epoch,
		Peers:         n.members.size(),
		Registrations: n.registry.size(),
		StoreRecords:  n.store.size(),
		Suspects:      n.peersTbl.suspectAddrs(),
		Region:        n.cfg.Region,
		PeerRTTs:      n.peerRTTs(),
		CacheEntries:  n.loc.Len(),
		PoolSessions:  n.pool.sessionCount(),
		Counters:      n.cfg.Counters.Snapshot(),
	}
	n.ownedMu.Lock()
	s.OwnedKeys = len(n.owned)
	n.ownedMu.Unlock()
	return s
}
