package live

// Benchmarks for the live stack's two hot paths.
//
// BenchmarkRPCPooled* measure the pooled RPC path — every exchange
// multiplexed over one long-lived connection — with and without the
// breaker/retry wrapping.
// Run with: go test -bench=BenchmarkRPCPooled -benchmem ./internal/live
//
// BenchmarkDiscover and BenchmarkResolve* contrast address resolution
// with and without the lease-aware location cache: Discover always pays
// a network round trip; ResolveHot answers from a fresh lease,
// ResolveStale serves optimistically while revalidating, ResolveColdMiss
// pays the network plus the cache fill. `make bench` records these in
// BENCH_resolve.json for cross-PR comparison.
import (
	"context"
	"fmt"
	"testing"
	"time"

	"bristle/internal/hashkey"
	"bristle/internal/metrics"
	"bristle/internal/transport"
	"bristle/internal/wire"
)

// benchPair starts a ping server and returns a client node plus the
// server address. Retries are disabled: a benchmark exchange either works
// or the benchmark should fail loudly.
func benchPair(b *testing.B) (*Node, string) {
	b.Helper()
	mem := transport.NewMem()
	server := NewNode(Config{Name: "bench-server", Capacity: 2}, mem)
	if err := server.Start(""); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { server.Close() })

	client := NewNode(Config{Name: "bench-client", Capacity: 1, RetryAttempts: 1}, mem)
	b.Cleanup(func() { client.Close() })
	return client, server.Addr()
}

func BenchmarkRPCPooled(b *testing.B) {
	client, addr := benchPair(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.PingContext(ctx, addr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRPCPooledParallel(b *testing.B) {
	client, addr := benchPair(b)
	ctx := context.Background()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := client.PingContext(ctx, addr); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRPCPooledRaw measures the pool's round trip without the
// breaker/retry wrapping — the mux floor itself.
func BenchmarkRPCPooledRaw(b *testing.B) {
	client, addr := benchPair(b)
	ctx := context.Background()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := client.pool.roundTrip(ctx, addr, &wire.Message{Type: wire.TPing}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// resolveBench starts a two-server ring with a published target record
// and returns a warmed client plus the target's key and address.
func resolveBench(b *testing.B) (*Node, hashkey.Key, string) {
	b.Helper()
	mem := transport.NewMem()
	var servers []*Node
	for _, name := range []string{"bench-a", "bench-b"} {
		nd := NewNode(Config{Name: name, Capacity: 4, RetryAttempts: 1}, mem)
		if err := nd.Start(""); err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { nd.Close() })
		servers = append(servers, nd)
	}
	client := NewNode(Config{Name: "bench-resolver", Capacity: 1, RetryAttempts: 1}, mem)
	if err := client.Start(""); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { client.Close() })
	for _, nd := range append(servers[1:], client) {
		if err := nd.JoinViaContext(context.Background(), servers[0].Addr()); err != nil {
			b.Fatal(err)
		}
	}
	target := servers[0]
	if err := target.Publish(); err != nil {
		b.Fatal(err)
	}
	return client, target.Key(), target.Addr()
}

// BenchmarkDiscover is the cold baseline: every resolution is a network
// _discovery round trip (forced late binding) — what every lookup cost
// before the location cache existed.
func BenchmarkDiscover(b *testing.B) {
	client, key, _ := resolveBench(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.DiscoverContext(ctx, key); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResolveHot is the steady state the cache buys: a fresh lease
// answers every resolve with one sharded map read — no network, no
// shared protocol lock.
func BenchmarkResolveHot(b *testing.B) {
	client, key, _ := resolveBench(b)
	ctx := context.Background()
	if _, err := client.ResolveContext(ctx, key); err != nil {
		b.Fatal(err) // warm the cache
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.ResolveContext(ctx, key); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResolveHotParallel: the hot path under contention — many
// goroutines resolving the same key concurrently.
func BenchmarkResolveHotParallel(b *testing.B) {
	client, key, _ := resolveBench(b)
	ctx := context.Background()
	if _, err := client.ResolveContext(ctx, key); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := client.ResolveContext(ctx, key); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkResolveStale measures stale-while-revalidate: the lease has
// lapsed, so each resolve serves the stale address immediately and (at
// most once at a time) launches a background refresh flight.
func BenchmarkResolveStale(b *testing.B) {
	client, key, addr := resolveBench(b)
	ctx := context.Background()
	client.loc.Put(key, addr, time.Nanosecond)
	time.Sleep(time.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := client.ResolveContext(ctx, key)
		if err != nil {
			b.Fatal(err)
		}
		// A background refresh may freshen the entry mid-run; re-stale it
		// outside the interesting path only when that happened.
		if _, ok := client.CachedAddr(key); ok {
			b.StopTimer()
			client.loc.Put(key, got, time.Nanosecond)
			b.StartTimer()
		}
	}
}

// BenchmarkResolveColdMiss: the worst case with the cache on — every
// iteration misses (the entry is invalidated each time) and pays the
// singleflight + network + fill.
func BenchmarkResolveColdMiss(b *testing.B) {
	client, key, _ := resolveBench(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		client.loc.Invalidate(key)
		if _, err := client.ResolveContext(ctx, key); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPublishCluster starts three stationary replicas plus one mobile
// publisher that owns ownedKeys resource records beyond its identity key.
func benchPublishCluster(b *testing.B, ownedKeys int) (*Node, *metrics.Counters) {
	b.Helper()
	counters := metrics.NewCounters()
	mem := transport.NewMem()
	var servers []*Node
	for _, name := range []string{"bench-r1", "bench-r2", "bench-r3"} {
		nd := NewNode(Config{Name: name, Capacity: 4, RetryAttempts: 1}, mem)
		if err := nd.Start(""); err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { nd.Close() })
		servers = append(servers, nd)
	}
	pub := NewNode(Config{Name: "bench-pub", Capacity: 2, Mobile: true, RetryAttempts: 1, Counters: counters}, mem)
	if err := pub.Start(""); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { pub.Close() })
	for _, nd := range append(servers[1:], pub) {
		if err := nd.JoinViaContext(context.Background(), servers[0].Addr()); err != nil {
			b.Fatal(err)
		}
	}
	keys := make([]hashkey.Key, ownedKeys)
	for i := range keys {
		keys[i] = hashkey.FromName(fmt.Sprintf("bench-obj-%d", i))
	}
	pub.OwnKeys(keys...)
	return pub, counters
}

// benchmarkPublishBatch measures one full publication of the publisher's
// record set (1, 100, or 10k records) and reports the measured RPC count
// per publish — the tentpole's O(replicas) claim as a recorded metric:
// rpcs/op must stay ~constant (≤ one frame chunk per distinct replica
// address) while records/op grows 10000×. `make bench` records these in
// BENCH_publish.json.
func benchmarkPublishBatch(b *testing.B, ownedKeys int) {
	pub, counters := benchPublishCluster(b, ownedKeys)
	ctx := context.Background()
	before := counters.Get("publish.rpcs")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pub.PublishContext(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	rpcs := counters.Get("publish.rpcs") - before
	b.ReportMetric(float64(rpcs)/float64(b.N), "rpcs/op")
}

func BenchmarkPublishBatch1(b *testing.B)   { benchmarkPublishBatch(b, 0) }
func BenchmarkPublishBatch100(b *testing.B) { benchmarkPublishBatch(b, 99) }
func BenchmarkPublishBatch10k(b *testing.B) { benchmarkPublishBatch(b, 9999) }

// sinkEntries keeps the compiler from eliding the registry reads below.
var sinkEntries []wire.Entry

// BenchmarkPublishIngestParallel drives the server-side batch ingest path
// (handlePublishBatch) from all cores at once against a bare node — the
// hot serve loop as the wire dispatch runs it, minus the transport. The
// steady state re-ingests a known batch (same addresses, same epoch):
// every record overwrites its existing shard slot and the membership
// fast path short-circuits, so the path must report 0 allocs/op. `make
// bench` records this in BENCH_publish.json and `make bench-gate`
// enforces the zero.
func BenchmarkPublishIngestParallel(b *testing.B) {
	n := NewNode(Config{Name: "bench-ingest", Capacity: 4}, transport.NewMem())
	if err := n.Start(""); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { n.Close() })

	self := wire.Entry{Key: hashkey.FromName("bench-mob"), Addr: "mem:bench-mob", Capacity: 2, Mobile: true, Epoch: 7}
	entries := make([]wire.Entry, 64)
	for i := range entries {
		entries[i] = wire.Entry{Key: hashkey.FromName(fmt.Sprintf("bench-ing-%d", i)), Addr: self.Addr, Epoch: self.Epoch}
	}
	msg := &wire.Message{Type: wire.TPublishBatch, Self: self, Entries: entries}
	n.handlePublishBatch(msg) // warm: all slots exist, membership knows the publisher

	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			n.handlePublishBatch(msg)
		}
	})
}

// BenchmarkRegistryReadParallel reads R(self) from all cores while the
// table sits behind its copy-on-write snapshot: the reads share no lock
// with each other or with writers, so throughput must scale with cores
// instead of serializing on a node-global mutex as the monolithic node
// did.
func BenchmarkRegistryReadParallel(b *testing.B) {
	n := NewNode(Config{Name: "bench-registry", Capacity: 4}, transport.NewMem())
	if err := n.Start(""); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { n.Close() })
	for i := 0; i < 64; i++ {
		e := wire.Entry{Key: hashkey.FromName(fmt.Sprintf("bench-reg-%d", i)), Addr: fmt.Sprintf("mem:reg-%d", i), Capacity: 1}
		n.registry.put(e.Key, registration{entry: e})
	}

	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			sinkEntries = n.Registry()
		}
	})
}
