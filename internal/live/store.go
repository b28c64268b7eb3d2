package live

// This file is the node's repository fragment — the location records it
// holds as an owner/replica of other nodes' keys — plus the server-side
// handlers that ingest and serve them (TPublish, TPublishBatch,
// TDiscover, TUpdate).
//
// Both tables are sharded sixteen ways by key, mirroring loccache's
// layout: a publish batch ingesting thousands of records contends only
// per shard, never with concurrent discovers for unrelated keys, and
// never with membership, registry, or lifecycle state. The handlers are
// deliberately allocation-free in steady state (re-publishing a known
// record overwrites a map slot; logging is gated before the variadic
// call boxes its arguments), which is what keeps the hot serve path at
// 0 allocs/op (BenchmarkPublishIngestParallel).

import (
	"math"
	"sync"
	"time"

	"bristle/internal/hashkey"
	"bristle/internal/wire"
)

// stateShards is the shard count of the node's keyed protocol tables
// (record store, seen-update epochs). Power of two so shard selection is
// a mask.
const stateShards = 16

type storedLoc struct {
	addr    string
	expires time.Time
	hasTTL  bool
	epoch   uint64 // publisher's move counter; newest-epoch-wins
}

func (s storedLoc) valid(now time.Time) bool {
	return s.addr != "" && (!s.hasTTL || now.Before(s.expires))
}

type storeShard struct {
	mu sync.Mutex
	m  map[hashkey.Key]storedLoc
}

// recordStore is the sharded location repository: written by publishes,
// read to answer discovers. The epoch check runs under the record's
// shard lock, so concurrent publishes of one key serialize exactly where
// they must and nowhere else.
type recordStore struct {
	shards [stateShards]storeShard
}

func (s *recordStore) init() {
	for i := range s.shards {
		s.shards[i].m = make(map[hashkey.Key]storedLoc)
	}
}

func (s *recordStore) shard(k hashkey.Key) *storeShard {
	return &s.shards[uint64(k)&(stateShards-1)]
}

// apply ingests one published record under newest-epoch-wins: a record
// whose epoch is older than the live one already stored is the ghost of
// a pre-move publication (a frame transport.Faulty delayed or
// duplicated) and must not resurrect the old address. A record whose
// lease has lapsed no longer outranks anything. Reports whether the
// record was stored.
func (s *recordStore) apply(e wire.Entry, now time.Time) bool {
	sh := s.shard(e.Key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if old, ok := sh.m[e.Key]; ok && old.valid(now) && old.epoch > e.Epoch {
		return false
	}
	rec := storedLoc{addr: e.Addr, epoch: e.Epoch}
	if e.TTLMilli > 0 {
		rec.hasTTL = true
		rec.expires = now.Add(time.Duration(e.TTLMilli) * time.Millisecond)
	}
	sh.m[e.Key] = rec
	return true
}

func (s *recordStore) get(k hashkey.Key) (storedLoc, bool) {
	sh := s.shard(k)
	sh.mu.Lock()
	rec, ok := sh.m[k]
	sh.mu.Unlock()
	return rec, ok
}

func (s *recordStore) size() int {
	total := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		total += len(sh.m)
		sh.mu.Unlock()
	}
	return total
}

type epochShard struct {
	mu sync.Mutex
	m  map[hashkey.Key]uint64
}

// epochTable tracks, per subject, the newest epoch this node has
// ingested through TUpdate — the guard that keeps a delayed or
// duplicated push from regressing the cache/peers to a pre-move address.
type epochTable struct {
	shards [stateShards]epochShard
}

func (t *epochTable) init() {
	for i := range t.shards {
		t.shards[i].m = make(map[hashkey.Key]uint64)
	}
}

func (t *epochTable) shard(k hashkey.Key) *epochShard {
	return &t.shards[uint64(k)&(stateShards-1)]
}

// observe admits epoch for key unless a strictly newer epoch was already
// ingested; admission records it. The check-and-record is atomic per
// key's shard, so two racing pushes of different epochs resolve to the
// newer one no matter the interleaving.
func (t *epochTable) observe(k hashkey.Key, epoch uint64) bool {
	sh := t.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if seen, ok := sh.m[k]; ok && seen > epoch {
		return false
	}
	sh.m[k] = epoch
	return true
}

func (t *epochTable) get(k hashkey.Key) uint64 {
	sh := t.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.m[k]
}

func (n *Node) handlePublish(m *wire.Message) {
	ok := n.store.apply(m.Self, time.Now())
	if ok {
		// A publisher is also a live peer worth knowing about.
		n.members.update(m.Self)
	}
	n.count("publish.records")
	if ok {
		n.count("publish.accepted")
		if n.cfg.Logger != nil {
			n.logf("stored location of %v → %s (epoch %d)", m.Self.Key, m.Self.Addr, m.Self.Epoch)
		}
	} else {
		n.count("publish.stale_rejected")
		if n.cfg.Logger != nil {
			n.logf("rejected stale publish of %v → %s (epoch %d)", m.Self.Key, m.Self.Addr, m.Self.Epoch)
		}
	}
}

// handlePublishBatch ingests a multi-record publish record by record,
// each under its own shard lock: concurrent discovers never stall behind
// the batch, and two batches for one publisher interleave per key with
// the epoch check breaking every tie. A discover served mid-batch may
// see a partially applied move, but never a regressed record — the
// not-yet-applied keys still answer with the previous (epoch-older)
// binding, exactly as they would have an instant earlier, and the next
// record to land supersedes it.
func (n *Node) handlePublishBatch(m *wire.Message) {
	now := time.Now()
	accepted := 0
	for i := range m.Entries {
		if n.store.apply(m.Entries[i], now) {
			accepted++
		}
	}
	n.members.update(m.Self)
	n.cfg.Counters.Add("publish.records", uint64(len(m.Entries)))
	n.cfg.Counters.Add("publish.accepted", uint64(accepted))
	if rejected := len(m.Entries) - accepted; rejected > 0 {
		n.cfg.Counters.Add("publish.stale_rejected", uint64(rejected))
	}
	if n.cfg.Logger != nil {
		n.logf("batch publish from %v: %d records, %d accepted (epoch %d)",
			m.Self.Key, len(m.Entries), accepted, m.Self.Epoch)
	}
}

// handleDiscover answers a _discovery from this node's repository
// fragment (store) only. Serving an answer deliberately does NOT write
// the node's own location cache: the server merely relayed a record it
// owns — it expressed no interest in the key, and polluting its cache
// here would let third-party queries evict its own working set.
//
// The response carries the record's remaining lease, so the querier's
// cache entry expires exactly when the repository record does — without
// it, late-binding results would never go stale client-side.
func (n *Node) handleDiscover(m *wire.Message) *wire.Message {
	rec, ok := n.store.get(m.Key)
	resp := &wire.Message{Type: wire.TDiscoverResp, Seq: m.Seq, Key: m.Key}
	if ok && rec.valid(time.Now()) {
		resp.Found = true
		resp.Self = wire.Entry{Key: m.Key, Addr: rec.addr, TTLMilli: remainingTTLMilli(rec), Epoch: rec.epoch}
	}
	return resp
}

// remainingTTLMilli converts a stored record's remaining lease into the
// wire's millisecond form: 0 means "no lease", so a live-but-nearly-done
// lease clamps up to 1ms rather than becoming immortal, and durations
// beyond the uint32 range saturate.
func remainingTTLMilli(rec storedLoc) uint32 {
	if !rec.hasTTL {
		return 0
	}
	ms := time.Until(rec.expires) / time.Millisecond
	switch {
	case ms < 1:
		return 1
	case ms > math.MaxUint32:
		return math.MaxUint32
	}
	return uint32(ms)
}

// handleUpdate ingests a proactive location push (early binding). The
// subject's new address belongs in the location *cache* — this node
// registered interest and learned where the subject moved — not in the
// repository (store): the pushing node is not publishing to us as an
// owner, and serving this hearsay to _discovery queries would bypass the
// replica placement. The write-through shares one source of truth with
// late-binding discover results.
func (n *Node) handleUpdate(m *wire.Message) {
	n.count("updates.received")
	if !n.seen.observe(m.Self.Key, m.Self.Epoch) {
		// An out-of-order push (delayed or duplicated by the network): the
		// subject has already moved past this address. Applying it would
		// regress every resolver behind this node's cache — and recursing
		// would spread the regression down the delegated subtree.
		n.count("updates.stale_rejected")
		if n.cfg.Logger != nil {
			n.logf("rejected stale update: %v → %s (epoch %d, seen %d)",
				m.Self.Key, m.Self.Addr, m.Self.Epoch, n.seen.get(m.Self.Key))
		}
		return
	}
	n.members.update(m.Self)
	n.count("updates.applied")
	// Epoch-aware write-through: belt and braces under the epochTable
	// guard — a concurrent discover fill for the same key races this
	// write, and the cache's own newest-epoch-wins breaks the tie.
	n.loc.PutEpoch(m.Self.Key, m.Self.Addr, time.Duration(m.Self.TTLMilli)*time.Millisecond, m.Self.Epoch)
	select {
	case n.updates <- Update{Key: m.Self.Key, Addr: m.Self.Addr}:
	default:
		// Applications that don't drain updates must not block the tree —
		// but the loss has to be observable, not silent.
		n.count("updates.dropped")
		if n.cfg.Logger != nil {
			n.logf("updates channel full; dropped update for %v (%s)", m.Self.Key, m.Self.Addr)
		}
	}
	if n.cfg.Logger != nil {
		n.logf("location update: %v now at %s, delegating %d", m.Self.Key, m.Self.Addr, len(m.Entries))
	}
	// Re-advertise to the delegated subtree (Figure 4 recursion) through
	// the coalescing queue: the handler returns immediately, the flusher
	// sends under the node's lifecycle context — a Close mid-fan-out
	// aborts the recursion instead of stalling behind it.
	if len(m.Entries) > 0 {
		n.advertise(m.Self, m.Entries)
	}
}
