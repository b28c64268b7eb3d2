package live

// Regression tests for the epoch-ordered update paths and the batched
// publish. The handler-level tests are deterministic reproductions of
// the stale-address-resurrection bugs: before epochs, handlePublish and
// handleUpdate were last-writer-wins, so a frame the network delayed or
// duplicated past a newer binding would drag the repository (or a
// resolver's cache) back to a dead address.

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"bristle/internal/hashkey"
	"bristle/internal/metrics"
	"bristle/internal/transport"
	"bristle/internal/wire"
)

// TestHandlePublishRejectsStaleEpoch replays the exact frame order a
// duplicated-and-delayed publish produces: the epoch-2 binding (addr B)
// lands first, then the epoch-1 ghost (addr A) arrives late. The store
// must keep B. Pre-fix, the second frame overwrote the first.
func TestHandlePublishRejectsStaleEpoch(t *testing.T) {
	counters := metrics.NewCounters()
	mem := transport.NewMem()
	n := NewNode(Config{Name: "owner", Capacity: 2, Counters: counters}, mem)
	if err := n.Start(""); err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	key := hashkey.FromName("subject")
	n.handlePublish(&wire.Message{Type: wire.TPublish, Self: wire.Entry{Key: key, Addr: "addr-B", Epoch: 2}})
	n.handlePublish(&wire.Message{Type: wire.TPublish, Self: wire.Entry{Key: key, Addr: "addr-A", Epoch: 1}})

	resp := n.handleDiscover(&wire.Message{Type: wire.TDiscover, Key: key})
	if !resp.Found || resp.Self.Addr != "addr-B" {
		t.Fatalf("store resurrected stale address: got %q (found %v), want addr-B", resp.Self.Addr, resp.Found)
	}
	if resp.Self.Epoch != 2 {
		t.Fatalf("discover reported epoch %d, want 2", resp.Self.Epoch)
	}
	if got := counters.Get("publish.stale_rejected"); got != 1 {
		t.Fatalf("publish.stale_rejected = %d, want 1", got)
	}
	// An expired newer record no longer outranks anything: the ghost is
	// at least a reachable address from this key's past, while a lapsed
	// lease is a promise nobody renewed.
	key2 := hashkey.FromName("subject-2")
	n.handlePublish(&wire.Message{Type: wire.TPublish, Self: wire.Entry{Key: key2, Addr: "addr-B", Epoch: 2, TTLMilli: 1}})
	time.Sleep(5 * time.Millisecond)
	n.handlePublish(&wire.Message{Type: wire.TPublish, Self: wire.Entry{Key: key2, Addr: "addr-A", Epoch: 1, TTLMilli: 60000}})
	if resp := n.handleDiscover(&wire.Message{Type: wire.TDiscover, Key: key2}); !resp.Found || resp.Self.Addr != "addr-A" {
		t.Fatalf("expired record still outranks: got %q (found %v), want addr-A", resp.Self.Addr, resp.Found)
	}
}

// TestHandleUpdateRejectsStaleEpoch drives the early-binding path with
// the same out-of-order delivery: the epoch-3 push (addr C) first, then
// a duplicated epoch-2 push (addr B). Neither the location cache nor the
// membership map may regress, and the stale push must not recurse into
// the delegated subtree.
func TestHandleUpdateRejectsStaleEpoch(t *testing.T) {
	counters := metrics.NewCounters()
	mem := transport.NewMem()
	n := NewNode(Config{Name: "watcher", Capacity: 2, Counters: counters}, mem)
	if err := n.Start(""); err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	subject := hashkey.FromName("mover")
	n.handleUpdate(&wire.Message{Type: wire.TUpdate, Self: wire.Entry{Key: subject, Addr: "addr-C", TTLMilli: 60000, Epoch: 3}})
	n.handleUpdate(&wire.Message{Type: wire.TUpdate, Self: wire.Entry{Key: subject, Addr: "addr-B", TTLMilli: 60000, Epoch: 2}})

	if addr, ok := n.CachedAddr(subject); !ok || addr != "addr-C" {
		t.Fatalf("cache resurrected stale address: got %q (ok %v), want addr-C", addr, ok)
	}
	for _, p := range n.KnownPeers() {
		if p.Key == subject && p.Addr != "addr-C" {
			t.Fatalf("peers map resurrected stale address: %q", p.Addr)
		}
	}
	if got := counters.Get("updates.stale_rejected"); got != 1 {
		t.Fatalf("updates.stale_rejected = %d, want 1", got)
	}
	if got := counters.Get("updates.applied"); got != 1 {
		t.Fatalf("updates.applied = %d, want 1", got)
	}
	// The stale push must not have been delivered to the application.
	select {
	case u := <-n.Updates():
		if u.Addr != "addr-C" {
			t.Fatalf("application saw stale update %q", u.Addr)
		}
	default:
		t.Fatal("applied update was not delivered")
	}
	select {
	case u := <-n.Updates():
		t.Fatalf("stale update delivered to application: %+v", u)
	default:
	}
}

// TestRebindBumpsEpoch pins the ordering source itself: every rebind
// must advance the publish epoch, and the new self entry must carry it.
func TestRebindBumpsEpoch(t *testing.T) {
	nodes, cleanup := startCluster(t, []string{"s1", "s2", "mob"}, map[string]bool{"mob": true}, nil)
	defer cleanup()
	mob := nodes["mob"]
	before := mob.Stats().Epoch
	if err := mob.RebindContext(context.Background(), ""); err != nil {
		t.Fatal(err)
	}
	after := mob.Stats().Epoch
	if after <= before {
		t.Fatalf("rebind did not advance epoch: %d → %d", before, after)
	}
	if got := mob.SelfEntry().Epoch; got != after {
		t.Fatalf("self entry epoch %d, want %d", got, after)
	}
}

// TestPublishBatchRPCCountAndAtomicIngest is the tentpole's O(replicas)
// claim as a test: a node owning many keys re-homes all of them in at
// most one RPC per distinct replica address — not one per key — and
// every record is discoverable afterwards.
func TestPublishBatchRPCCountAndAtomicIngest(t *testing.T) {
	counters := metrics.NewCounters()
	mem := transport.NewMem()
	names := []string{"s1", "s2", "s3", "mob"}
	nodes := make(map[string]*Node, len(names))
	var started []*Node
	for _, name := range names {
		cfg := Config{Name: name, Capacity: 4, Mobile: name == "mob", RequestTimeout: time.Second, Counters: counters}
		nd := NewNode(cfg, mem)
		if err := nd.Start(""); err != nil {
			t.Fatalf("start %s: %v", name, err)
		}
		nodes[name] = nd
		started = append(started, nd)
	}
	defer func() {
		for _, nd := range started {
			nd.Close()
		}
	}()
	for _, nd := range started[1:] {
		if err := nd.JoinViaContext(context.Background(), started[0].Addr()); err != nil {
			t.Fatal(err)
		}
	}
	mob := nodes["mob"]
	if err := mob.JoinViaContext(context.Background(), started[0].Addr()); err != nil {
		t.Fatal(err)
	}

	const numKeys = 200
	keys := make([]hashkey.Key, numKeys)
	for i := range keys {
		keys[i] = hashkey.FromName(fmt.Sprintf("res-%d", i))
	}
	mob.OwnKeys(keys...)

	before := counters.Get("publish.rpcs")
	if err := mob.Publish(); err != nil {
		t.Fatal(err)
	}
	rpcs := counters.Get("publish.rpcs") - before
	// 201 records × replication 2 across ≤3 stationary peers: the batch
	// must collapse to at most one frame per distinct replica address.
	if rpcs == 0 || rpcs > 3 {
		t.Fatalf("batched publish used %d RPCs, want 1..3 (O(replicas), not O(keys))", rpcs)
	}
	for _, k := range keys {
		addr, err := nodes["s1"].Discover(k)
		if err != nil {
			t.Fatalf("discover %v: %v", k, err)
		}
		if addr != mob.Addr() {
			t.Fatalf("key %v resolved to %q, want %q", k, addr, mob.Addr())
		}
	}
}

// TestPublishedKeysFollowRebind: the whole point of the owned set — a
// move re-homes every record, and the rebound epoch makes the new
// bindings authoritative.
func TestPublishedKeysFollowRebind(t *testing.T) {
	nodes, cleanup := startCluster(t, []string{"s1", "s2", "s3", "mob"}, map[string]bool{"mob": true}, nil)
	defer cleanup()
	mob := nodes["mob"]
	keys := []hashkey.Key{hashkey.FromName("obj-a"), hashkey.FromName("obj-b"), hashkey.FromName("obj-c")}
	mob.OwnKeys(keys...)
	if err := mob.Publish(); err != nil {
		t.Fatal(err)
	}
	oldAddr := mob.Addr()
	if err := mob.RebindContext(context.Background(), ""); err != nil {
		t.Fatal(err)
	}
	if mob.Addr() == oldAddr {
		t.Fatal("rebind did not change address")
	}
	for _, k := range keys {
		addr, err := nodes["s1"].Discover(k)
		if err != nil {
			t.Fatalf("discover after rebind: %v", err)
		}
		if addr != mob.Addr() {
			t.Fatalf("owned key %v still at %q after rebind to %q", k, addr, mob.Addr())
		}
	}
}

// TestNoStaleResurrectionUnderDuplication runs the full stack over a
// duplicating, delaying link (no drops: every frame eventually arrives,
// possibly twice and late) through three rapid moves. Every stationary
// replica and the watcher's cache must settle on the final address —
// pre-epoch, a late duplicate of an earlier publish could win the race
// and stick, because nothing newer would ever displace it again.
func TestNoStaleResurrectionUnderDuplication(t *testing.T) {
	counters := metrics.NewCounters()
	faulty := transport.NewFaulty(transport.NewMem(), transport.FaultConfig{
		Seed:      42,
		Duplicate: 0.5,
		DelayMin:  0,
		DelayMax:  10 * time.Millisecond,
	})
	names := []string{"s1", "s2", "s3", "mob", "watcher"}
	mobile := map[string]bool{"mob": true}
	nodes, cleanup := startChaosRing(t, faulty, names, mobile, counters)
	defer cleanup()

	mob, watcher := nodes["mob"], nodes["watcher"]
	if err := mob.Publish(); err != nil {
		t.Fatal(err)
	}
	if err := watcher.RegisterWithContext(context.Background(), mob.Addr()); err != nil {
		t.Fatal(err)
	}
	for move := 0; move < 3; move++ {
		if err := mob.RebindContext(context.Background(), ""); err != nil {
			t.Fatalf("move %d: %v", move, err)
		}
	}
	final := mob.Addr()

	deadline := time.Now().Add(10 * time.Second)
	for {
		addr, err := nodes["s1"].Discover(mob.Key())
		if err == nil && addr == final {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas never converged on final address: got %q (%v), want %q", addr, err, final)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Convergence must be sticky: duplicates of pre-move frames are still
	// in flight for a while; none may flip any replica back.
	time.Sleep(100 * time.Millisecond)
	for i := 0; i < 10; i++ {
		addr, err := nodes["s1"].Discover(mob.Key())
		if err != nil {
			t.Fatalf("re-discover: %v", err)
		}
		if addr != final {
			t.Fatalf("stale address resurrected after convergence: %q, want %q", addr, final)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if addr, ok := watcher.CachedAddr(mob.Key()); ok && addr != final {
		t.Fatalf("watcher cache pinned stale address %q, want %q", addr, final)
	}
}

// TestCloseUnblocksLDTFanOut pins satellite fix 3: a node handling a
// TUpdate whose delegated subtree includes an unreachable peer used to
// re-advertise synchronously under context.Background(), so Close waited
// out the full request timeout behind the handler. Now the handler only
// enqueues; the flusher's send is bounded by the node's lifecycle
// context and Close returns promptly, leaking no goroutines.
func TestCloseUnblocksLDTFanOut(t *testing.T) {
	baseline := runtime.NumGoroutine()
	mem := transport.NewMem()
	mem.BacklogWait = 30 * time.Second // a saturated dial blocks ~forever unless ctx-bounded

	// A black hole: listening, never accepting, backlog pre-filled so any
	// further dial parks in the backlog wait.
	bl, err := mem.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer bl.Close()
	for i := 0; i < 64; i++ {
		c, err := mem.Dial(bl.Addr())
		if err != nil {
			t.Fatalf("backlog fill %d: %v", i, err)
		}
		defer c.Close()
	}

	cfg := Config{Name: "relay", Capacity: 2, RequestTimeout: 20 * time.Second, RetryAttempts: 1}
	n := NewNode(cfg, mem)
	if err := n.Start(""); err != nil {
		t.Fatal(err)
	}
	sender := NewNode(Config{Name: "sender", Capacity: 1, RequestTimeout: time.Second}, mem)
	if err := sender.Start(""); err != nil {
		t.Fatal(err)
	}
	defer sender.Close()

	// Deliver, over the wire, an update that delegates the black hole to
	// the relay: its flusher will park inside the dial.
	msg := &wire.Message{
		Type:    wire.TUpdate,
		Self:    wire.Entry{Key: hashkey.FromName("mover"), Addr: "mem:nowhere", Capacity: 1, Epoch: 1},
		Entries: []wire.Entry{{Key: hashkey.FromName("delegate"), Addr: bl.Addr(), Capacity: 1}},
	}
	if err := sender.oneWay(sender.runCtx, n.Addr(), msg); err != nil {
		t.Fatalf("send update: %v", err)
	}
	// Wait until the relay has ingested the update (the handler must not
	// block on the fan-out).
	deadline := time.Now().Add(5 * time.Second)
	for {
		select {
		case <-n.Updates():
		default:
		}
		if _, ok := n.CachedAddr(hashkey.FromName("mover")); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("relay never ingested the update — handler blocked on fan-out?")
		}
		time.Sleep(5 * time.Millisecond)
	}

	start := time.Now()
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Close stalled %v behind the LDT fan-out (want prompt abort)", elapsed)
	}
	sender.Close()

	// No goroutine may outlive the nodes — the parked dial must have been
	// aborted, not abandoned.
	for end := time.Now().Add(5 * time.Second); ; {
		if runtime.NumGoroutine() <= baseline+2 {
			break
		}
		if time.Now().After(end) {
			t.Fatalf("goroutines leaked mid-fan-out: %d, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestUpdateQueueCoalesces unit-tests the queue's merge law: per
// (recipient, subject) slot, newest epoch wins, older epochs are
// subsumed, equal epochs union their delegations.
func TestUpdateQueueCoalesces(t *testing.T) {
	subject := hashkey.FromName("mover")
	mk := func(epoch uint64, addr string, delegated ...string) *wire.Message {
		m := &wire.Message{Type: wire.TUpdate, Self: wire.Entry{Key: subject, Addr: addr, Epoch: epoch}}
		for _, d := range delegated {
			m.Entries = append(m.Entries, wire.Entry{Key: hashkey.FromName(d), Addr: d})
		}
		return m
	}

	q := newUpdateQueue()
	d1, co := q.enqueue("peer:1", mk(1, "addr-A"))
	if co {
		t.Fatal("first enqueue reported coalesced")
	}
	d2, co := q.enqueue("peer:1", mk(2, "addr-B"))
	if !co || d1 != d2 {
		t.Fatalf("rapid re-push did not coalesce (coalesced=%v, same done=%v)", co, d1 == d2)
	}
	if _, co := q.enqueue("peer:1", mk(3, "addr-C")); !co {
		t.Fatal("third push did not coalesce")
	}
	// An even older frame arriving late must be subsumed, not shipped.
	if _, co := q.enqueue("peer:1", mk(2, "addr-B")); !co {
		t.Fatal("stale push did not coalesce")
	}
	// A different recipient is its own slot.
	if _, co := q.enqueue("peer:2", mk(3, "addr-C")); co {
		t.Fatal("distinct recipient coalesced")
	}

	batch := q.take()
	if len(batch) != 2 {
		t.Fatalf("take returned %d frames, want 2 (one per recipient)", len(batch))
	}
	if got := batch[0].msg.Self; got.Epoch != 3 || got.Addr != "addr-C" {
		t.Fatalf("peer:1 frame = %s@%d, want addr-C@3 (A→B→C must deliver only C)", got.Addr, got.Epoch)
	}

	// Equal epochs union their delegated subtrees: two partitions of the
	// same move must both be reached.
	q.enqueue("peer:1", mk(4, "addr-D", "w1", "w2"))
	q.enqueue("peer:1", mk(4, "addr-D", "w2", "w3"))
	batch = q.take()
	if len(batch) != 1 {
		t.Fatalf("take returned %d frames, want 1", len(batch))
	}
	if got := len(batch[0].msg.Entries); got != 3 {
		t.Fatalf("equal-epoch merge kept %d delegations, want 3 (union of w1,w2,w3)", got)
	}

	// After close: enqueue is a no-op whose done channel is already
	// closed, so waiters never block on a push that cannot ship.
	q.close()
	done, co := q.enqueue("peer:1", mk(5, "addr-E"))
	if co {
		t.Fatal("enqueue after close reported coalesced")
	}
	select {
	case <-done:
	default:
		t.Fatal("post-close done channel not closed")
	}
	if batch := q.take(); batch != nil {
		t.Fatalf("take after close returned %d frames, want nil", len(batch))
	}
}
