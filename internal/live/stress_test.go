package live

// Race-mode stress for the sharded node: every request-path concern —
// batch ingest, rebind, registry sweep, parallel resolves, owned-key
// churn — interleaved at once, with the conservation laws and the
// no-stale-resurrection invariant asserted at the end. Run with
// `go test -race` to make the scheduler adversarial.

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"bristle/internal/hashkey"
	"bristle/internal/metrics"
	"bristle/internal/transport"
	"bristle/internal/wire"
)

// TestShardedNodeStressRace interleaves PublishBatch ingestion, Rebind,
// registry sweeps, stale-epoch ghost injection, and 64 parallel
// resolvers against one cluster sharing a counter registry, then checks:
//
//   - counter conservation: every ingested publish record was either
//     accepted or stale-rejected, every received update either applied
//     or stale-rejected — no record lost between shards;
//   - no stale resurrection: after the storm, discovery converges on the
//     mobile node's final address and stays there.
func TestShardedNodeStressRace(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	counters := metrics.NewCounters()
	mem := transport.NewMem()
	names := []string{"s1", "s2", "s3", "mob", "client"}
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
	mob, client := nodes["mob"], nodes["client"]

	keys := make([]hashkey.Key, 128)
	for i := range keys {
		keys[i] = hashkey.FromName(fmt.Sprintf("stress-res-%d", i))
	}
	mob.OwnKeys(keys...)
	if err := mob.Publish(); err != nil {
		t.Fatal(err)
	}
	if err := client.RegisterWithContext(context.Background(), mob.Addr()); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	var wg sync.WaitGroup

	// Publisher: re-homes the whole owned set over and over.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if err := mob.PublishContext(ctx); err != nil {
				t.Errorf("publish %d: %v", i, err)
				return
			}
		}
	}()

	// Rebinder: moves the mobile node while publishes are in flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := mob.RebindContext(ctx, ""); err != nil {
				t.Errorf("rebind %d: %v", i, err)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	// Registry churn: the client re-registers (renewing its lease via the
	// mobile node's current address) while sweeps run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			mob.SweepRegistry()
			if addr := mob.Addr(); addr != "" {
				_ = client.RegisterWithContext(ctx, addr) // may race a rebind; retried next round
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Ghost injector: replays epoch-1 frames straight into a replica's
	// ingest path — the delayed-duplicate scenario. Every one must be
	// rejected as stale (the live records carry wall-clock epochs).
	wg.Add(1)
	go func() {
		defer wg.Done()
		ghost := wire.Entry{Key: mob.Key(), Addr: "ghost:1", Epoch: 1}
		ents := make([]wire.Entry, 0, 9)
		ents = append(ents, ghost)
		for _, k := range keys[:8] {
			ents = append(ents, wire.Entry{Key: k, Addr: "ghost:1", Epoch: 1})
		}
		for i := 0; i < 100; i++ {
			nodes["s1"].handlePublishBatch(&wire.Message{Type: wire.TPublishBatch, Self: ghost, Entries: ents})
		}
	}()

	// 64 parallel resolvers hammering the client's resolve path. Errors
	// are tolerated mid-storm (a rebind can race an attempt past its
	// retries); correctness is asserted after convergence below.
	for r := 0; r < 64; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			k := keys[r%len(keys)]
			for i := 0; i < 20; i++ {
				_, _ = client.ResolveContext(ctx, k)
			}
		}(r)
	}

	wg.Wait()

	// Storm over: one final publication, then every probe must converge on
	// the final address and stick there (no ghost, no pre-move binding).
	if err := mob.PublishContext(ctx); err != nil {
		t.Fatal(err)
	}
	final := mob.Addr()
	probe := keys[3]
	deadline := time.Now().Add(10 * time.Second)
	for {
		addr, err := client.DiscoverContext(ctx, probe)
		if err == nil && addr == final {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never converged: got %q (%v), want %q", addr, err, final)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		addr, err := client.DiscoverContext(ctx, probe)
		if err != nil || addr != final {
			t.Fatalf("stale resurrection after convergence: %q (%v), want %q", addr, err, final)
		}
	}

	// Conservation: the sharded ingest paths may not lose records.
	snap := counters.Snapshot()
	if recs, acc, rej := snap["publish.records"], snap["publish.accepted"], snap["publish.stale_rejected"]; recs != acc+rej {
		t.Errorf("publish conservation violated: records=%d accepted=%d stale_rejected=%d", recs, acc, rej)
	}
	if recv, app, rej := snap["updates.received"], snap["updates.applied"], snap["updates.stale_rejected"]; recv != app+rej {
		t.Errorf("update conservation violated: received=%d applied=%d stale_rejected=%d", recv, app, rej)
	}
	if snap["publish.stale_rejected"] == 0 {
		t.Error("ghost injections were never rejected — epoch guard inert?")
	}
}

// TestOwnedKeysConcurrentWithPublish pins the owned-set lock: OwnKeys,
// DisownKeys, and OwnedKeys racing a stream of PublishContext calls must
// neither tear the set nor trip the race detector, and the final state
// must be exactly what the last writers left.
func TestOwnedKeysConcurrentWithPublish(t *testing.T) {
	nodes, cleanup := startCluster(t, []string{"s1", "s2", "mob"}, map[string]bool{"mob": true}, nil)
	defer cleanup()
	mob := nodes["mob"]

	churn := make([]hashkey.Key, 64)
	for i := range churn {
		churn[i] = hashkey.FromName(fmt.Sprintf("churn-%d", i))
	}

	var wg sync.WaitGroup
	wg.Add(4)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			mob.OwnKeys(churn[i%len(churn)], churn[(i+7)%len(churn)])
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			mob.DisownKeys(churn[(i+3)%len(churn)])
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_ = mob.OwnedKeys()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := mob.Publish(); err != nil {
				t.Errorf("publish under churn: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	// Settle to a known state and verify the set is exact.
	mob.DisownKeys(churn...)
	want := []hashkey.Key{churn[1], churn[5], churn[9]}
	mob.OwnKeys(want...)
	got := mob.OwnedKeys()
	wantSorted := append([]hashkey.Key(nil), want...)
	for i := range wantSorted {
		for j := i + 1; j < len(wantSorted); j++ {
			if wantSorted[j] < wantSorted[i] {
				wantSorted[i], wantSorted[j] = wantSorted[j], wantSorted[i]
			}
		}
	}
	if !reflect.DeepEqual(got, wantSorted) {
		t.Fatalf("owned set torn by concurrent churn: got %v, want %v", got, wantSorted)
	}
	if err := mob.Publish(); err != nil {
		t.Fatal(err)
	}
	if st := mob.Stats(); st.OwnedKeys != len(want) {
		t.Fatalf("Stats().OwnedKeys = %d, want %d", st.OwnedKeys, len(want))
	}
}
