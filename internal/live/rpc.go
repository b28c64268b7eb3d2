package live

// This file is the resilient RPC layer: every request/response exchange
// a live node makes gets capped exponential backoff with full jitter
// under an overall deadline, and every peer gets a suspicion circuit
// breaker — repeated failures mark it suspect so later operations fail
// fast instead of burning a timeout, until a probe succeeds (§2.3.2's
// graceful degradation, applied to the transport itself).
//
// Every exchange rides the multiplexed connection pool (pool.go): one
// long-lived connection per peer, demultiplexed by sequence number. Every
// exchange is bounded by the caller's context on top of the per-attempt
// RequestTimeout.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"bristle/internal/transport"
	"bristle/internal/wire"
)

// breakerState is the classic three-state circuit.
type breakerState int

const (
	bkClosed   breakerState = iota // healthy: all traffic flows
	bkOpen                         // suspect: fail fast until probeAt
	bkHalfOpen                     // one probe in flight; others fail fast
)

type breaker struct {
	state   breakerState
	fails   int       // consecutive failed exchanges
	probeAt time.Time // when open: earliest next probe
}

// peerShard is one slice of the per-peer breaker table.
type peerShard struct {
	mu sync.Mutex
	m  map[string]*breaker
}

// peerTable holds every peer's circuit breaker, sharded by address hash:
// an exchange's allow/record pair contends only with exchanges against
// peers in the same shard, never with the whole fan-out of a publish.
type peerTable struct {
	shards [stateShards]peerShard
}

func (t *peerTable) init() {
	for i := range t.shards {
		t.shards[i].m = make(map[string]*breaker)
	}
}

// addrShard hashes an address to a shard index by FNV-1a — addresses
// are short strings, and the keyed tables' mask trick needs a
// well-mixed integer first. Shared by the breaker, RTT, and pool
// tables so one peer's state co-locates by construction.
func addrShard(addr string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(addr); i++ {
		h ^= uint32(addr[i])
		h *= 16777619
	}
	return h & (stateShards - 1)
}

// shard selects addr's breaker shard.
func (t *peerTable) shard(addr string) *peerShard {
	return &t.shards[addrShard(addr)]
}

// suspectAddrs returns the addresses whose breakers are open or
// half-open, sorted — the peers currently routed around.
func (t *peerTable) suspectAddrs() []string {
	var out []string
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for addr, b := range sh.m {
			if b.state != bkClosed {
				out = append(out, addr)
			}
		}
		sh.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// suspectSet returns the set of peers whose breakers are non-closed,
// nil when every breaker is closed — the steady state, in which the
// whole scan costs one mutex round per shard and zero allocations.
// One call snapshots suspicion for an entire fan-out, where the old
// per-candidate sampling re-locked the table once per candidate per
// key ranked.
func (t *peerTable) suspectSet() map[string]bool {
	var out map[string]bool
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for addr, b := range sh.m {
			if b.state != bkClosed {
				if out == nil {
					out = make(map[string]bool)
				}
				out[addr] = true
			}
		}
		sh.mu.Unlock()
	}
	return out
}

// count bumps a named counter on the node's registry (nil-safe).
func (n *Node) count(name string) { n.cfg.Counters.Inc(name) }

// breakerAllow consults addr's breaker before any network I/O. A closed
// breaker admits the call; an open one past its cooldown moves to
// half-open and admits this single call as the probe; anything else fails
// fast with ErrPeerSuspect.
func (n *Node) breakerAllow(addr string) error {
	if n.cfg.SuspicionThreshold < 0 {
		return nil
	}
	sh := n.peersTbl.shard(addr)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	b := sh.m[addr]
	if b == nil || b.state == bkClosed {
		return nil
	}
	if b.state == bkOpen && !time.Now().Before(b.probeAt) {
		b.state = bkHalfOpen
		n.count("breaker.probes")
		return nil
	}
	n.count("breaker.fastfail")
	return fmt.Errorf("%w: %s", ErrPeerSuspect, addr)
}

// breakerResult records the outcome of an exchange with addr. Success
// closes (and forgets) the breaker; failures accumulate and trip it at
// SuspicionThreshold, or re-open it immediately from half-open.
func (n *Node) breakerResult(addr string, err error) {
	if n.cfg.SuspicionThreshold < 0 {
		return
	}
	sh := n.peersTbl.shard(addr)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	b := sh.m[addr]
	if err == nil {
		if b != nil {
			if b.state != bkClosed {
				n.count("breaker.closes")
				n.logf("peer %s healthy again; breaker closed", addr)
			}
			delete(sh.m, addr)
		}
		return
	}
	if errors.Is(err, ErrPeerSuspect) {
		return // a fast-fail is not fresh evidence
	}
	if b == nil {
		b = &breaker{}
		sh.m[addr] = b
	}
	b.fails++
	if b.state == bkHalfOpen || b.fails >= n.cfg.SuspicionThreshold {
		if b.state != bkOpen {
			n.count("breaker.trips")
			n.logf("peer %s suspect after %d consecutive failures", addr, b.fails)
		}
		b.state = bkOpen
		b.probeAt = time.Now().Add(n.cfg.SuspicionCooldown)
	}
}

// suspect reports whether addr's breaker is currently non-closed.
func (n *Node) suspect(addr string) bool {
	sh := n.peersTbl.shard(addr)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	b := sh.m[addr]
	return b != nil && b.state != bkClosed
}

// ProbeSuspects pings every suspect peer whose cooldown allows a probe;
// a successful probe closes the breaker. Failures only refresh the
// breaker's own state, so this is safe to call from a maintenance loop.
// (The suspect list itself is surfaced through Stats().Suspects.)
func (n *Node) ProbeSuspects() {
	for _, addr := range n.peersTbl.suspectAddrs() {
		if err := n.Ping(addr); err == nil {
			n.logf("probe of suspect %s succeeded", addr)
		}
	}
}

// request performs one request/response exchange with addr under the full
// resilience policy: breaker fail-fast, then up to RetryAttempts attempts
// with capped exponential backoff and full jitter, each attempt bounded
// by RequestTimeout, all attempts bounded by RetryBudget and by ctx.
func (n *Node) request(ctx context.Context, addr string, m *wire.Message) (*wire.Message, error) {
	if err := n.breakerAllow(addr); err != nil {
		return nil, err
	}
	resp, err := n.requestRetry(ctx, addr, m)
	// A failure caused by the caller giving up (ctx canceled or expired)
	// is not evidence against the peer; success still counts in its favor.
	if err == nil || ctx.Err() == nil {
		n.breakerResult(addr, err)
	}
	return resp, err
}

func (n *Node) requestRetry(ctx context.Context, addr string, m *wire.Message) (*wire.Message, error) {
	deadline := time.Now().Add(n.cfg.RetryBudget)
	var lastErr error
	for attempt := 0; attempt < n.cfg.RetryAttempts; attempt++ {
		if attempt > 0 {
			pause := n.backoff(attempt)
			if time.Now().Add(pause).After(deadline) {
				break // budget exhausted: report the last real error
			}
			if err := sleepCtx(ctx, pause); err != nil {
				break // caller gave up mid-backoff
			}
			n.count("rpc.retries")
		}
		if err := ctx.Err(); err != nil {
			if lastErr == nil {
				lastErr = fmt.Errorf("live: request to %s: %w", addr, err)
			}
			break
		}
		n.count("rpc.attempts")
		resp, err := n.attempt(ctx, addr, m)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if transport.IsTimeout(err) {
			n.count("rpc.timeouts")
		}
		if !Retryable(err) {
			n.count("rpc.fatal")
			return nil, err
		}
	}
	n.count("rpc.failures")
	return nil, lastErr
}

// sleepCtx pauses for d, or returns ctx's error if it fires first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// attempt runs a single pooled exchange, bounded by min(ctx,
// RequestTimeout), and on success folds its measured round-trip time
// into addr's RTT estimator (rtt.go) — proximity data comes for free
// with the traffic the node already sends, never from extra probes.
// Failures feed nothing: a timeout's duration measures the timeout, not
// the link.
func (n *Node) attempt(ctx context.Context, addr string, m *wire.Message) (*wire.Message, error) {
	actx, cancel := context.WithTimeout(ctx, n.cfg.RequestTimeout)
	defer cancel()
	start := time.Now()
	resp, err := n.pool.roundTrip(actx, addr, m)
	if err == nil {
		n.rtt.observe(addr, time.Since(start))
	}
	return resp, err
}

// backoff returns the pause before the attempt-th retry: full jitter over
// an exponentially growing cap — uniform in [0, min(RetryMax,
// RetryBase·2^(attempt-1))] — which decorrelates the retry storms of
// nodes that failed together.
func (n *Node) backoff(attempt int) time.Duration {
	cap := n.cfg.RetryBase << uint(attempt-1)
	if cap > n.cfg.RetryMax || cap <= 0 {
		cap = n.cfg.RetryMax
	}
	n.rngMu.Lock()
	defer n.rngMu.Unlock()
	return time.Duration(n.rng.Int63n(int64(cap) + 1))
}

// oneWay sends m to addr without waiting for a response. It still
// consults the breaker (a suspect peer fails fast; late binding covers
// the missed push) and feeds the outcome back into it.
func (n *Node) oneWay(ctx context.Context, addr string, m *wire.Message) error {
	if err := n.breakerAllow(addr); err != nil {
		return err
	}
	err := n.oneWaySend(ctx, addr, m)
	if err == nil || ctx.Err() == nil {
		n.breakerResult(addr, err)
	}
	return err
}

func (n *Node) oneWaySend(ctx context.Context, addr string, m *wire.Message) error {
	actx, cancel := context.WithTimeout(ctx, n.cfg.RequestTimeout)
	defer cancel()
	return n.pool.send(actx, addr, m)
}
