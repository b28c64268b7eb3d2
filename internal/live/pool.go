package live

// This file is the multiplexed connection pool under the RPC layer: one
// long-lived transport.Conn per peer, shared by every concurrent exchange
// with that peer. A writer goroutine serializes outbound frames, a reader
// goroutine demultiplexes replies back to waiting callers by sequence
// number — so an exchange costs a frame, not a dial, and many requests
// are in flight on one connection at once. Broken sessions tear down,
// fail their waiters with retryable errors, and are transparently
// re-dialed by the next attempt, composing with the retry/backoff and
// circuit-breaker machinery in rpc.go. Every frame the node originates
// rides a pooled session; there is no dial-per-request path.
//
// The session table is sharded by peer address (same FNV-1a layout as the
// breaker table): acquiring a session for one peer never contends with
// exchanges against peers in other shards. The global session cap is
// enforced with an atomic reservation counter rather than a pool-wide
// lock; at the cap an acquire evicts an idle session or waits for one.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bristle/internal/metrics"
	"bristle/internal/transport"
	"bristle/internal/wire"
)

// Pool limits. Only the idle timeout varies per node
// (Config.PoolIdleTimeout); the rest are fixed for every node.
const (
	// poolMaxSessions caps how many peers hold a pooled session at once.
	// At the cap the least-recently-used idle session is evicted; with
	// every session busy, an acquire waits for one to go idle or close.
	poolMaxSessions = 64
	// poolMaxInflight bounds the outbound frames queued to one session's
	// writer; enqueues past it wait (backpressure).
	poolMaxInflight = 128
	// defaultPoolIdleTimeout is Config.PoolIdleTimeout's default.
	defaultPoolIdleTimeout = 60 * time.Second
)

// errSessionIdle marks idle-eviction teardowns (never seen by callers:
// an idle session has no waiters).
var errSessionIdle = errors.New("live: session idle-evicted")

// poolShard is one slice of the per-peer session table.
type poolShard struct {
	mu sync.Mutex
	m  map[string]*session
}

// pool owns at most one session per peer address, sharded by address.
type pool struct {
	tr          transport.Transport
	idleTimeout time.Duration
	maxSessions int // poolMaxSessions; tests lower it to force saturation
	counters    *metrics.Counters
	gauges      *metrics.Gauges

	closed atomic.Bool
	nsess  atomic.Int64 // reserved session slots (the maxSessions cap)
	shards [stateShards]poolShard

	// Acquires parked at the cap (awaitSlot) wait on freed, which
	// slotFreed closes and replaces when a session goes idle or closes.
	waiters atomic.Int32
	freeMu  sync.Mutex
	freed   chan struct{}

	// The idle janitor runs only while the pool holds sessions: it starts
	// with the first one and exits once the table empties, so an idle
	// node's pool costs no goroutine and no timer.
	janMu       sync.Mutex
	janitorOn   bool
	stopJanitor chan struct{}
	wg          sync.WaitGroup // janitor + per-session read/write loops
}

func newPool(tr transport.Transport, idleTimeout time.Duration, counters *metrics.Counters, gauges *metrics.Gauges) *pool {
	p := &pool{
		tr:          tr,
		idleTimeout: idleTimeout,
		maxSessions: poolMaxSessions,
		counters:    counters,
		gauges:      gauges,
		freed:       make(chan struct{}),
		stopJanitor: make(chan struct{}),
	}
	for i := range p.shards {
		p.shards[i].m = make(map[string]*session)
	}
	return p
}

func (p *pool) count(name string)             { p.counters.Inc(name) }
func (p *pool) gaugeAdd(name string, d int64) { p.gauges.Add(name, d) }

// shard selects addr's slice of the session table (addrShard: the same
// FNV-1a as the breaker and RTT tables).
func (p *pool) shard(addr string) *poolShard {
	return &p.shards[addrShard(addr)]
}

// session is one peer's long-lived multiplexed connection.
type session struct {
	p    *pool
	addr string

	ready   chan struct{} // closed once the creator's dial resolved
	dialErr error         // set before ready closes

	conn    transport.Conn
	writeCh chan *wire.Message

	mu       sync.Mutex
	torn     bool
	err      error // teardown cause, set before done closes
	pending  map[uint32]chan *wire.Message
	nextSeq  uint32
	inflight int
	lastUse  time.Time

	done chan struct{} // closed by teardown
}

// acquire returns a live session for addr, dialing one if absent. The
// creator dials inline (bounded by its ctx); concurrent acquirers of the
// same address wait for that dial instead of racing their own. At the
// maxSessions cap the least-recently-used idle session is evicted and the
// acquire retried; with no idle victim the acquire waits, bounded by ctx,
// for a session to go idle or close.
func (p *pool) acquire(ctx context.Context, addr string) (*session, error) {
	for {
		if p.closed.Load() {
			return nil, ErrPoolClosed
		}
		sh := p.shard(addr)
		sh.mu.Lock()
		// Close CAS-marks closed before sweeping the shards, so an acquire
		// that sees closed==false here either beats the sweep (its session
		// is swept and torn down with the rest) or observes closed==true.
		if p.closed.Load() {
			sh.mu.Unlock()
			return nil, ErrPoolClosed
		}
		if s, ok := sh.m[addr]; ok {
			sh.mu.Unlock()
			select {
			case <-s.ready:
			case <-s.done:
				return nil, s.teardownErr()
			case <-ctx.Done():
				return nil, fmt.Errorf("live: pooled dial %s: %w", addr, ctx.Err())
			}
			if s.dialErr != nil {
				return nil, s.dialErr
			}
			return s, nil
		}
		// Absent: reserve a slot before inserting, so the cap holds
		// globally without a pool-wide lock.
		if p.nsess.Add(1) > int64(p.maxSessions) {
			p.nsess.Add(-1)
			sh.mu.Unlock()
			// A rival that saw this transient reservation may have parked.
			p.slotFreed()
			if victim := p.lruIdle(); victim != nil {
				p.count("pool.evictions.cap")
				victim.teardown(errSessionIdle) // its drop releases the slot
			} else if err := p.awaitSlot(ctx, addr); err != nil {
				return nil, err
			}
			continue
		}
		s := &session{
			p:       p,
			addr:    addr,
			ready:   make(chan struct{}),
			done:    make(chan struct{}),
			writeCh: make(chan *wire.Message, poolMaxInflight),
			pending: make(map[uint32]chan *wire.Message),
			lastUse: time.Now(),
		}
		sh.m[addr] = s
		p.gauges.Set("pool.sessions", p.nsess.Load())
		p.startJanitor() // under the shard lock: see startJanitor
		sh.mu.Unlock()
		return s, s.dial(ctx)
	}
}

// awaitSlot parks an acquire that found every session slot busy until a
// session goes idle or closes, or ctx expires. Expiry fails with
// transport.ErrBacklogFull, which the RPC layer retries like any other
// backpressure.
func (p *pool) awaitSlot(ctx context.Context, addr string) error {
	p.waiters.Add(1)
	defer p.waiters.Add(-1)
	p.freeMu.Lock()
	freed := p.freed
	p.freeMu.Unlock()
	// Re-check once signals can reach this waiter: a slot freed before
	// the registration above was not signalled.
	if p.closed.Load() || p.nsess.Load() < int64(p.maxSessions) || p.lruIdle() != nil {
		return nil
	}
	p.count("pool.waits")
	select {
	case <-freed:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("live: no pooled session free for %s: %w: %w", addr, transport.ErrBacklogFull, ctx.Err())
	}
}

// slotFreed wakes every acquire parked in awaitSlot. Without waiters it
// costs one atomic load, so the exchange path can call it freely.
func (p *pool) slotFreed() {
	if p.waiters.Load() == 0 {
		return
	}
	p.freeMu.Lock()
	close(p.freed)
	p.freed = make(chan struct{})
	p.freeMu.Unlock()
}

// dial is run once, by the session's creator. On success it starts the
// session's read and write loops.
func (s *session) dial(ctx context.Context) error {
	conn, err := transport.DialContext(ctx, s.p.tr, s.addr)
	if err != nil {
		s.dialErr = err
		close(s.ready)
		s.p.drop(s)
		s.teardown(err)
		return err
	}
	s.mu.Lock()
	if s.torn { // pool closed or session evicted while dialing
		err := s.err
		s.mu.Unlock()
		conn.Close()
		s.dialErr = err
		close(s.ready)
		return err
	}
	s.conn = conn
	s.mu.Unlock()
	close(s.ready)
	s.p.count("pool.dials")
	s.p.wg.Add(2)
	go s.writeLoop()
	go s.readLoop()
	return nil
}

func (s *session) writeLoop() {
	defer s.p.wg.Done()
	for {
		select {
		case <-s.done:
			return
		case m := <-s.writeCh:
			if err := s.conn.Send(m); err != nil {
				s.teardown(fmt.Errorf("live: pooled send to %s: %w", s.addr, err))
				return
			}
		}
	}
}

// readLoop demultiplexes inbound frames to their waiting callers by
// sequence number. Replies nobody is waiting for — a duplicated frame's
// second answer, or the answer to an abandoned (timed-out) request — are
// counted and dropped. Any receive error tears the session down: on a
// real stream a framing error is unrecoverable, and a fresh connection
// is one retry away.
func (s *session) readLoop() {
	defer s.p.wg.Done()
	for {
		m, err := s.conn.Recv()
		if err != nil {
			s.teardown(fmt.Errorf("live: pooled recv from %s: %w", s.addr, err))
			return
		}
		s.mu.Lock()
		ch, ok := s.pending[m.Seq]
		if ok {
			delete(s.pending, m.Seq)
		}
		s.mu.Unlock()
		if !ok {
			s.p.count("pool.demux.orphans")
			continue
		}
		ch <- m // buffered (cap 1); never blocks
	}
}

// teardown closes the session exactly once: waiters fail, the conn
// closes, and the pool forgets the session so the next attempt re-dials.
func (s *session) teardown(err error) {
	s.mu.Lock()
	if s.torn {
		s.mu.Unlock()
		return
	}
	s.torn = true
	s.err = err
	conn := s.conn
	pend := s.pending
	s.pending = nil
	s.mu.Unlock()
	close(s.done)
	if conn != nil {
		conn.Close()
	}
	s.p.drop(s)
	for _, ch := range pend {
		close(ch) // closed reply channel = session failed; see roundTrip
	}
	if err != errSessionIdle && err != ErrPoolClosed {
		s.p.count("pool.broken")
	}
}

func (s *session) teardownErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	return ErrPoolClosed
}

// register assigns the next sequence number and parks a reply channel
// for it. Fails if the session is already torn.
func (s *session) register(m *wire.Message) (uint32, chan *wire.Message, error) {
	s.mu.Lock()
	if s.torn {
		err := s.err
		s.mu.Unlock()
		return 0, nil, err
	}
	s.nextSeq++
	seq := s.nextSeq
	m.Seq = seq
	reply := make(chan *wire.Message, 1)
	s.pending[seq] = reply
	s.inflight++
	s.lastUse = time.Now()
	s.mu.Unlock()
	s.p.gaugeAdd("pool.inflight", 1)
	return seq, reply, nil
}

func (s *session) unregister(seq uint32) {
	s.mu.Lock()
	if s.pending != nil {
		delete(s.pending, seq)
	}
	s.mu.Unlock()
}

func (s *session) endUse() {
	s.mu.Lock()
	s.inflight--
	idle := s.inflight == 0
	s.lastUse = time.Now()
	s.mu.Unlock()
	s.p.gaugeAdd("pool.inflight", -1)
	if idle {
		s.p.slotFreed()
	}
}

// roundTrip runs one request/response exchange over the shared
// connection, bounded by ctx. A slow reply to another caller cannot
// block this one: each waiter parks on its own demux channel.
//
// The frame is enqueued as a private shallow copy: an abandoned attempt's
// frame may still sit in the write queue when the retry re-stamps Seq, so
// attempts must never share a Message with the writer.
func (s *session) roundTrip(ctx context.Context, m *wire.Message) (*wire.Message, error) {
	mm := *m
	seq, reply, err := s.register(&mm)
	if err != nil {
		return nil, err
	}
	defer s.endUse()
	select {
	case s.writeCh <- &mm:
	case <-s.done:
		s.unregister(seq)
		return nil, s.teardownErr()
	case <-ctx.Done():
		s.unregister(seq)
		return nil, fmt.Errorf("live: pooled request to %s: %w", s.addr, ctx.Err())
	}
	select {
	case resp, ok := <-reply:
		if !ok {
			return nil, s.teardownErr()
		}
		return resp, nil
	case <-ctx.Done():
		s.unregister(seq)
		return nil, fmt.Errorf("live: pooled request to %s: %w", s.addr, ctx.Err())
	}
}

// send enqueues a one-way frame (no reply expected) on the shared
// connection.
func (s *session) send(ctx context.Context, m *wire.Message) error {
	mm := *m
	s.mu.Lock()
	if s.torn {
		err := s.err
		s.mu.Unlock()
		return err
	}
	s.nextSeq++
	mm.Seq = s.nextSeq
	s.lastUse = time.Now()
	s.mu.Unlock()
	select {
	case s.writeCh <- &mm:
		return nil
	case <-s.done:
		return s.teardownErr()
	case <-ctx.Done():
		return fmt.Errorf("live: pooled send to %s: %w", s.addr, ctx.Err())
	}
}

// roundTrip acquires (or dials) addr's session and runs one exchange.
func (p *pool) roundTrip(ctx context.Context, addr string, m *wire.Message) (*wire.Message, error) {
	s, err := p.acquire(ctx, addr)
	if err != nil {
		return nil, err
	}
	return s.roundTrip(ctx, m)
}

// send acquires (or dials) addr's session and enqueues a one-way frame.
func (p *pool) send(ctx context.Context, addr string, m *wire.Message) error {
	s, err := p.acquire(ctx, addr)
	if err != nil {
		return err
	}
	return s.send(ctx, m)
}

// drop forgets s unless a newer session already replaced it, releasing
// its slot reservation. The identity check makes the double-drop from
// the dial-failure path (drop + teardown→drop) harmless.
func (p *pool) drop(s *session) {
	sh := p.shard(s.addr)
	sh.mu.Lock()
	dropped := sh.m[s.addr] == s
	if dropped {
		delete(sh.m, s.addr)
		p.gauges.Set("pool.sessions", p.nsess.Add(-1))
	}
	sh.mu.Unlock()
	if dropped {
		p.slotFreed()
	}
}

// lruIdle returns the least-recently-used session with nothing in
// flight, or nil. Shards are scanned one at a time; the answer is a best
// effort under concurrent churn, which eviction tolerates by design.
func (p *pool) lruIdle() *session {
	var oldest *session
	var oldestUse time.Time
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for _, s := range sh.m {
			s.mu.Lock()
			idle := !s.torn && s.inflight == 0
			use := s.lastUse
			s.mu.Unlock()
			if idle && (oldest == nil || use.Before(oldestUse)) {
				oldest, oldestUse = s, use
			}
		}
		sh.mu.Unlock()
	}
	return oldest
}

// startJanitor starts the idle janitor unless it runs already. Callers
// hold the shard lock of a session they just inserted: Close sweeps every
// shard under its lock before it waits on wg, so this wg.Add is ordered
// before that wait.
func (p *pool) startJanitor() {
	p.janMu.Lock()
	if !p.janitorOn {
		p.janitorOn = true
		p.wg.Add(1)
		go p.janitor()
	}
	p.janMu.Unlock()
}

// janitor evicts idle sessions every quarter idle timeout and exits once
// the table is empty. The emptiness check and janitorOn flip share janMu
// with startJanitor, so a session inserted concurrently either keeps
// this janitor running or starts a new one.
func (p *pool) janitor() {
	defer p.wg.Done()
	interval := p.idleTimeout / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-p.stopJanitor:
			return
		case now := <-t.C:
			p.evictIdle(now)
			p.janMu.Lock()
			if p.nsess.Load() == 0 {
				p.janitorOn = false
				p.janMu.Unlock()
				return
			}
			p.janMu.Unlock()
		}
	}
}

func (p *pool) evictIdle(now time.Time) {
	var victims []*session
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for _, s := range sh.m {
			s.mu.Lock()
			idle := !s.torn && s.inflight == 0 && now.Sub(s.lastUse) >= p.idleTimeout
			s.mu.Unlock()
			if idle {
				victims = append(victims, s)
			}
		}
		sh.mu.Unlock()
	}
	for _, s := range victims {
		p.count("pool.evictions.idle")
		s.teardown(errSessionIdle)
	}
}

// sessionCount reports the current number of pooled sessions.
func (p *pool) sessionCount() int { return int(p.nsess.Load()) }

// Close tears down every session and stops the janitor, then waits for
// all pool goroutines to exit. Idempotent.
func (p *pool) Close() {
	if !p.closed.CompareAndSwap(false, true) {
		return
	}
	var victims []*session
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for _, s := range sh.m {
			victims = append(victims, s)
		}
		sh.m = make(map[string]*session)
		sh.mu.Unlock()
	}
	p.nsess.Store(0)
	p.gauges.Set("pool.sessions", 0)
	close(p.stopJanitor)
	p.slotFreed() // parked acquires wake and see closed
	for _, s := range victims {
		s.teardown(ErrPoolClosed)
	}
	p.wg.Wait()
}
