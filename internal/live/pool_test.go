package live

// Tests for the multiplexed connection pool: correct demultiplexing under
// concurrency and injected frame faults, idle eviction, transparent
// re-dial of broken sessions, the bounded wait at the session cap, and the
// head-of-line-blocking regression (a slow exchange must not delay a fast
// one sharing the connection).

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"bristle/internal/hashkey"
	"bristle/internal/metrics"
	"bristle/internal/transport"
	"bristle/internal/wire"
)

// poolTestConfig returns a client policy tuned for fast tests: short
// per-attempt timeouts, quick retries, suspicion off (injected faults
// must not trip breakers and mask pool behaviour).
func poolTestConfig(name string, counters *metrics.Counters, gauges *metrics.Gauges) Config {
	return Config{
		Name:               name,
		Capacity:           1,
		RequestTimeout:     300 * time.Millisecond,
		RetryAttempts:      8,
		RetryBase:          2 * time.Millisecond,
		RetryMax:           20 * time.Millisecond,
		RetryBudget:        10 * time.Second,
		SuspicionThreshold: -1,
		Counters:           counters,
		Gauges:             gauges,
	}
}

// TestPoolConcurrentDemuxUnderFaults hammers one pooled session from many
// goroutines through a lossy, duplicating link. Every exchange must
// complete (retries cover dropped frames), replies must land with their
// own callers (demux by seq), and the whole load must ride a handful of
// dials, not one per request.
func TestPoolConcurrentDemuxUnderFaults(t *testing.T) {
	mem := transport.NewMem()
	faulty := transport.NewFaulty(mem, transport.FaultConfig{
		Seed:      42,
		Drop:      0.08,
		Duplicate: 0.15,
	})

	server := NewNode(Config{Name: "demux-server", Capacity: 2}, faulty.Endpoint("server"))
	if err := server.Start(""); err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	counters := metrics.NewCounters()
	gauges := metrics.NewGauges()
	client := NewNode(poolTestConfig("demux-client", counters, gauges), faulty.Endpoint("client"))
	defer client.Close()

	const workers = 16
	const perWorker = 20
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if err := client.PingContext(ctx, server.Addr()); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("ping under faults: %v", err)
	}

	if got := client.Stats().PoolSessions; got != 1 {
		t.Errorf("PoolSessions = %d, want 1 (one peer)", got)
	}
	if got := gauges.Get("pool.inflight"); got != 0 {
		t.Errorf("pool.inflight gauge = %d after quiescence, want 0", got)
	}
	dials := counters.Get("pool.dials")
	if dials == 0 || dials > 20 {
		t.Errorf("pool.dials = %d, want a handful (reuse, not dial-per-request)", dials)
	}
	t.Logf("counters: %s", counters)
}

// pingServer is a minimal hand-rolled peer: answers pings, hands every
// other frame to the test on oneWay, and lets the test reach into its
// accepted connections to break them.
type pingServer struct {
	l      transport.Listener
	conns  chan transport.Conn
	oneWay chan *wire.Message
}

func startPingServer(t *testing.T, tr transport.Transport) *pingServer {
	t.Helper()
	l, err := tr.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	s := &pingServer{l: l, conns: make(chan transport.Conn, 16), oneWay: make(chan *wire.Message, 16)}
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			select {
			case s.conns <- c:
			default: // tests only reach into the first few conns
			}
			go func(c transport.Conn) {
				for {
					m, err := c.Recv()
					if err != nil {
						return
					}
					if m.Type != wire.TPing {
						s.oneWay <- m
						continue
					}
					if err := c.Send(&wire.Message{Type: wire.TPong, Seq: m.Seq}); err != nil {
						return
					}
				}
			}(c)
		}
	}()
	t.Cleanup(func() { l.Close() })
	return s
}

func TestPoolIdleEviction(t *testing.T) {
	mem := transport.NewMem()
	server := startPingServer(t, mem)

	counters := metrics.NewCounters()
	gauges := metrics.NewGauges()
	cfg := poolTestConfig("idle-client", counters, gauges)
	cfg.PoolIdleTimeout = 40 * time.Millisecond
	client := NewNode(cfg, mem)
	defer client.Close()

	ctx := context.Background()
	if err := client.PingContext(ctx, server.l.Addr()); err != nil {
		t.Fatal(err)
	}
	if got := client.Stats().PoolSessions; got != 1 {
		t.Fatalf("PoolSessions after ping = %d, want 1", got)
	}

	deadline := time.Now().Add(2 * time.Second)
	for client.Stats().PoolSessions != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("idle session never evicted; sessions=%d", client.Stats().PoolSessions)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := counters.Get("pool.evictions.idle"); got == 0 {
		t.Errorf("pool.evictions.idle = 0, want >= 1")
	}
	if got := gauges.Get("pool.sessions"); got != 0 {
		t.Errorf("pool.sessions gauge = %d after eviction, want 0", got)
	}
	// With the table empty the janitor exits; the next session restarts it.
	janitorOn := func() bool {
		client.pool.janMu.Lock()
		defer client.pool.janMu.Unlock()
		return client.pool.janitorOn
	}
	for janitorOn() {
		if time.Now().After(deadline) {
			t.Fatal("janitor still running with no sessions")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The next exchange transparently re-dials.
	if err := client.PingContext(ctx, server.l.Addr()); err != nil {
		t.Fatalf("ping after eviction: %v", err)
	}
	if got := counters.Get("pool.dials"); got != 2 {
		t.Errorf("pool.dials = %d, want 2 (initial + re-dial)", got)
	}
	if !janitorOn() {
		t.Error("janitor not restarted with the re-dialed session")
	}
}

func TestPoolRedialAfterBrokenSession(t *testing.T) {
	mem := transport.NewMem()
	server := startPingServer(t, mem)

	counters := metrics.NewCounters()
	client := NewNode(poolTestConfig("redial-client", counters, nil), mem)
	defer client.Close()

	ctx := context.Background()
	if err := client.PingContext(ctx, server.l.Addr()); err != nil {
		t.Fatal(err)
	}
	first := <-server.conns
	first.Close() // the peer's end of the pooled session dies

	// The client's read loop notices and tears the session down.
	deadline := time.Now().Add(2 * time.Second)
	for client.Stats().PoolSessions != 0 {
		if time.Now().After(deadline) {
			t.Fatal("broken session never torn down")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The next exchange re-dials without caller involvement.
	if err := client.PingContext(ctx, server.l.Addr()); err != nil {
		t.Fatalf("ping after broken session: %v", err)
	}
	if got := counters.Get("pool.dials"); got != 2 {
		t.Errorf("pool.dials = %d, want 2", got)
	}
	if got := counters.Get("pool.broken"); got == 0 {
		t.Errorf("pool.broken = 0, want >= 1")
	}
}

// slowServer answers pings immediately but delays discover responses,
// replying out of order — the probe for head-of-line blocking.
func startSlowServer(t *testing.T, tr transport.Transport, slowFor time.Duration) transport.Listener {
	t.Helper()
	l, err := tr.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c transport.Conn) {
				var sendMu sync.Mutex
				for {
					m, err := c.Recv()
					if err != nil {
						return
					}
					switch m.Type {
					case wire.TPing:
						sendMu.Lock()
						c.Send(&wire.Message{Type: wire.TPong, Seq: m.Seq})
						sendMu.Unlock()
					case wire.TDiscover:
						go func(seq uint32) {
							time.Sleep(slowFor)
							sendMu.Lock()
							c.Send(&wire.Message{Type: wire.TDiscoverResp, Seq: seq, Found: true})
							sendMu.Unlock()
						}(m.Seq)
					}
				}
			}(c)
		}
	}()
	t.Cleanup(func() { l.Close() })
	return l
}

// TestPoolNoHeadOfLineBlocking shares one session between a slow exchange
// and a fast one; the fast reply must come back while the slow exchange
// is still pending.
func TestPoolNoHeadOfLineBlocking(t *testing.T) {
	mem := transport.NewMem()
	const slowFor = 400 * time.Millisecond
	l := startSlowServer(t, mem, slowFor)

	p := newPool(mem, defaultPoolIdleTimeout, nil, nil)
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	slowDone := make(chan error, 1)
	go func() {
		_, err := p.roundTrip(ctx, l.Addr(), &wire.Message{Type: wire.TDiscover, Key: hashkey.FromName("slow")})
		slowDone <- err
	}()
	// Let the slow request reach the wire before racing it.
	time.Sleep(50 * time.Millisecond)

	start := time.Now()
	if _, err := p.roundTrip(ctx, l.Addr(), &wire.Message{Type: wire.TPing}); err != nil {
		t.Fatalf("fast ping: %v", err)
	}
	fast := time.Since(start)
	if fast > slowFor/2 {
		t.Errorf("fast exchange took %v behind a %v-slow one: head-of-line blocking", fast, slowFor)
	}
	if err := <-slowDone; err != nil {
		t.Fatalf("slow exchange: %v", err)
	}
	if p.sessionCount() != 1 {
		t.Errorf("sessions = %d, want 1 (both exchanges share the conn)", p.sessionCount())
	}
}

// TestPoolSaturationWaitsForSlot pins the only session slot with a
// 300ms exchange. There is no dial-per-request fallback: an exchange with
// a second peer waits for the slot to free and then evicts its session, a
// caller whose context is shorter than the pin fails with retryable
// backpressure, and a one-way push waits too instead of being dropped.
func TestPoolSaturationWaitsForSlot(t *testing.T) {
	mem := transport.NewMem()
	const pin = 300 * time.Millisecond
	slow := startSlowServer(t, mem, pin)
	fastSrv := startPingServer(t, mem)

	counters := metrics.NewCounters()
	cfg := poolTestConfig("saturated-client", counters, nil)
	cfg.RequestTimeout = 2 * time.Second
	client := NewNode(cfg, mem)
	client.pool.maxSessions = 1
	defer client.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// pinSlot occupies the single slot with an in-flight slow exchange and
	// returns when it started, plus a channel that yields its result.
	pinSlot := func() (time.Time, <-chan error) {
		start := time.Now()
		done := make(chan error, 1)
		go func() {
			_, err := client.pool.roundTrip(ctx, slow.Addr(), &wire.Message{Type: wire.TDiscover, Key: hashkey.FromName("x")})
			done <- err
		}()
		time.Sleep(50 * time.Millisecond)
		return start, done
	}

	start, pinned := pinSlot()
	if err := client.PingContext(ctx, fastSrv.l.Addr()); err != nil {
		t.Fatalf("ping during saturation: %v", err)
	}
	if waited := time.Since(start); waited < pin {
		t.Errorf("ping finished %v after the pin started, before the %v pin freed the slot", waited, pin)
	}
	if got := counters.Get("pool.dials"); got != 2 {
		t.Errorf("pool.dials = %d, want 2 (the pin, then the ping after eviction)", got)
	}
	if err := <-pinned; err != nil {
		t.Fatalf("pinned exchange: %v", err)
	}

	_, pinned = pinSlot()
	short, cancelShort := context.WithTimeout(ctx, 50*time.Millisecond)
	err := client.PingContext(short, fastSrv.l.Addr())
	cancelShort()
	if !errors.Is(err, transport.ErrBacklogFull) || !Retryable(err) {
		t.Errorf("ping with a context shorter than the pin: err = %v, want retryable ErrBacklogFull", err)
	}
	if err := <-pinned; err != nil {
		t.Fatalf("pinned exchange: %v", err)
	}

	_, pinned = pinSlot()
	push := &wire.Message{Type: wire.TUpdate, Self: wire.Entry{Key: hashkey.FromName("pushed"), Addr: "mem:pushed"}}
	if err := client.oneWay(ctx, fastSrv.l.Addr(), push); err != nil {
		t.Fatalf("one-way push during saturation: %v", err)
	}
	select {
	case m := <-fastSrv.oneWay:
		if m.Type != wire.TUpdate || m.Self.Addr != "mem:pushed" {
			t.Errorf("delivered frame = %v %q, want the pushed update", m.Type, m.Self.Addr)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("one-way push sent during saturation was never delivered")
	}
	if err := <-pinned; err != nil {
		t.Fatalf("pinned exchange: %v", err)
	}
}

// TestPoolCapUnderConcurrentLoad drives more peers than session slots
// from many goroutines at once, with an idle timeout short enough that
// the janitor starts and exits under the load. Every exchange completes
// through eviction or the wait at the cap, and the cap always holds.
func TestPoolCapUnderConcurrentLoad(t *testing.T) {
	mem := transport.NewMem()
	var addrs []string
	for i := 0; i < 4; i++ {
		addrs = append(addrs, startPingServer(t, mem).l.Addr())
	}
	counters := metrics.NewCounters()
	cfg := poolTestConfig("cap-client", counters, nil)
	cfg.RequestTimeout = 2 * time.Second
	cfg.PoolIdleTimeout = 20 * time.Millisecond
	client := NewNode(cfg, mem)
	const slots = 2
	client.pool.maxSessions = slots
	defer client.Close()
	// held counts the session table under every shard lock at once, so a
	// session moving between shards mid-count cannot be counted twice.
	held := func() int {
		n := 0
		for i := range client.pool.shards {
			client.pool.shards[i].mu.Lock()
			n += len(client.pool.shards[i].m)
		}
		for i := range client.pool.shards {
			client.pool.shards[i].mu.Unlock()
		}
		return n
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := client.PingContext(ctx, addrs[(w+i)%len(addrs)]); err != nil {
					t.Errorf("worker %d ping %d: %v", w, i, err)
					return
				}
				if n := held(); n > slots {
					t.Errorf("pool holds %d sessions, cap %d", n, slots)
					return
				}
				if i%5 == 0 {
					time.Sleep(25 * time.Millisecond) // let sessions idle out
				}
			}
		}(w)
	}
	wg.Wait()
	t.Logf("counters: %s", counters)
}

// TestPoolClosedIsTerminal verifies exchanges racing Close fail with the
// non-retryable ErrPoolClosed instead of hanging or retrying.
func TestPoolClosedIsTerminal(t *testing.T) {
	mem := transport.NewMem()
	server := startPingServer(t, mem)

	p := newPool(mem, defaultPoolIdleTimeout, nil, nil)
	ctx := context.Background()
	if _, err := p.roundTrip(ctx, server.l.Addr(), &wire.Message{Type: wire.TPing}); err != nil {
		t.Fatal(err)
	}
	p.Close()
	_, err := p.roundTrip(ctx, server.l.Addr(), &wire.Message{Type: wire.TPing})
	if err != ErrPoolClosed {
		t.Fatalf("roundTrip after Close: err = %v, want ErrPoolClosed", err)
	}
	if Retryable(err) {
		t.Error("ErrPoolClosed must not be retryable")
	}
}
