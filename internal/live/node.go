// Package live runs Bristle's location-management protocol over real
// connections (TCP or the in-memory test transport): publish, discover,
// register, and LDT-driven location updates, with leases, exactly as
// Section 2.3 describes.
//
// A live node keeps full membership knowledge refreshed by anti-entropy
// gossip — appropriate for the small rings a single machine can host.
// (The O(log N) routing-state behaviour of large overlays is exercised by
// the simulation packages; the live node demonstrates the protocol end to
// end: a mobile node re-binds to a new port, republishes, pushes updates
// down a capacity-scheduled dissemination tree, and correspondents keep
// reaching it.)
//
// The implementation is split by concern, with no node-global mutex on
// any request path (DESIGN.md §13 maps every lock):
//
//   - node.go       — Config, lifecycle (Start/Close/Rebind), connection
//     serving and dispatch
//   - api.go        — the consolidated public surface: canonical
//     *Context methods, a few suffix-less aliases, Stats
//   - store.go      — the sharded record repository and the ingest/serve
//     handlers (publish, discover, update)
//   - membership.go — copy-on-write membership and registry views;
//     join/gossip/register; replica selection
//   - publish.go    — the owned-key set and the batched publish fan-out
//   - resolve.go    — the cache-first resolve hot path
//   - advertise.go  — the coalescing LDT push queue and fan-out
//   - rpc.go        — retries, backoff, sharded per-peer circuit breakers
//   - pool.go       — the sharded multiplexed connection pool
//
// Every public operation that can touch the network has a Context-suffixed
// form (PublishContext, DiscoverContext, ...) that observes the caller's
// cancellation and deadline end to end — through retries, backoff pauses,
// and pooled exchanges, including a wait for a free session when the
// pool is at its cap. Resolve, Discover, Publish and Ping also have
// suffix-less aliases over context.Background(), collected in api.go.
// Every frame rides the connection pool, and every node runs the
// location cache: neither has an off-switch.
package live

import (
	"context"
	"errors"
	"log"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"bristle/internal/hashkey"
	"bristle/internal/loccache"
	"bristle/internal/metrics"
	"bristle/internal/transport"
	"bristle/internal/wire"
)

// Update is a proactive location update delivered to a registered node.
type Update struct {
	Key  hashkey.Key
	Addr string
}

// Config parameterizes a live node. Prefer constructing nodes with New
// and functional options (options.go); Config remains public for callers
// that want to build the whole policy in one literal.
type Config struct {
	// Name seeds the node's hash key (FromName), standing in for a stable
	// node identity independent of its network address. When Identity is
	// set the key derives from the public key instead and Name is only a
	// diagnostic label.
	Name string
	// Identity is the node's cryptographic identity. When set, the node's
	// hash key is self-certifying — hashkey.IDKey(pub, region, regions) —
	// and joins carry a signed proof of the claim, so verifying peers can
	// reject a node squatting a key it didn't earn. Nil keeps the legacy
	// name-derived key and sends unsigned joins.
	Identity *hashkey.Identity
	// RequireVerifiedJoins makes this node reject TJoin requests that carry
	// no identity proof. (Joins that carry a proof are always verified,
	// with or without this flag.)
	RequireVerifiedJoins bool
	// JoinAsObserver makes this node's joins request the stationary
	// directory without being ingested into ring membership — the scalable
	// admission mode for client/mobile nodes, which stationary peers learn
	// about through publish traffic instead of join-time gossip.
	JoinAsObserver bool
	// Capacity is the advertised C_X used to schedule LDTs.
	Capacity float64
	// Mobile marks the node as relocatable (Rebind allowed).
	Mobile bool
	// Region labels where this node physically sits (a datacenter, a
	// transit domain — any coarse locality bucket). When a stationary node
	// has both Region and Regions set, its hash key is drawn from the
	// region's stripes of the ring (hashkey.RegionStriped) so that the k
	// closest stationary keys to any resource key span k distinct regions:
	// every resolver then has a replica in or near its own region for
	// latency-ordered selection to find. Mobile nodes ignore it for key
	// derivation (they don't host records) but still report it in Stats.
	Region string
	// Regions is the full deployment-wide region list (order-insensitive;
	// every node must use the same set). Empty disables region-striped
	// placement and keys fall back to plain FromName hashing.
	Regions []string
	// LeaseTTL bounds how long published locations and caches stay valid.
	// Zero disables expiry.
	LeaseTTL time.Duration
	// Replication is how many stationary peers hold this node's location
	// record (§2.3.2 availability; discovery falls over across them).
	// Minimum effective value 1; default 2.
	Replication int
	// RequestTimeout bounds one attempt of a request/response exchange —
	// a peer that accepts but never answers costs at most this long per
	// attempt. Default 10s.
	RequestTimeout time.Duration
	// RetryAttempts caps how many times one exchange is attempted before
	// giving up (default 4; 1 restores single-shot semantics).
	RetryAttempts int
	// RetryBase is the cap of the first backoff pause; it doubles per
	// retry (full jitter: the pause is uniform in [0, cap]). Default 25ms.
	RetryBase time.Duration
	// RetryMax caps a single backoff pause. Default 1s.
	RetryMax time.Duration
	// RetryBudget bounds the total wall time of one exchange across all
	// attempts and pauses. Default RetryAttempts × RequestTimeout.
	RetryBudget time.Duration
	// SuspicionThreshold is how many consecutive failed exchanges trip a
	// peer's circuit breaker; tripped peers fail fast and are deprioritized
	// as replicas until a probe succeeds. Default 3; negative disables
	// suspicion entirely.
	SuspicionThreshold int
	// SuspicionCooldown is how long a tripped breaker fails fast before it
	// lets one probe through (half-open). Default 2s.
	SuspicionCooldown time.Duration
	// PoolIdleTimeout closes a pooled peer session (pool.go) after this
	// long without traffic. Default 60s. Every exchange rides the pool;
	// its other limits are fixed, and so is the location cache behind
	// Resolve (loccache's defaults).
	PoolIdleTimeout time.Duration
	// Counters optionally records resilience events (rpc.retries,
	// rpc.timeouts, breaker.trips, pool.dials, ...); nil disables them.
	Counters *metrics.Counters
	// Gauges optionally exposes instantaneous pool state (pool.sessions,
	// pool.inflight); nil disables them.
	Gauges *metrics.Gauges
	// Logger receives protocol diagnostics; nil silences them.
	Logger *log.Logger
}

// withDefaults fills every unset knob — the single place defaults live,
// shared by NewNode and New.
func (cfg Config) withDefaults() Config {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 1
	}
	if cfg.Replication < 1 {
		cfg.Replication = 2
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	if cfg.RetryAttempts <= 0 {
		cfg.RetryAttempts = 4
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 25 * time.Millisecond
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = time.Second
	}
	if cfg.RetryBudget <= 0 {
		cfg.RetryBudget = time.Duration(cfg.RetryAttempts) * cfg.RequestTimeout
	}
	if cfg.SuspicionThreshold == 0 {
		cfg.SuspicionThreshold = 3
	}
	if cfg.SuspicionCooldown <= 0 {
		cfg.SuspicionCooldown = 2 * time.Second
	}
	if cfg.PoolIdleTimeout <= 0 {
		cfg.PoolIdleTimeout = defaultPoolIdleTimeout
	}
	return cfg
}

// listenerState is one network attachment point: the listener plus every
// connection accepted through it, so closing the attachment also closes
// the long-lived multiplexed connections remote pools hold against it
// (without this, Close would wait forever on their serve goroutines).
type listenerState struct {
	l transport.Listener

	mu     sync.Mutex
	closed bool
	conns  map[transport.Conn]struct{}
}

func newListenerState(l transport.Listener) *listenerState {
	return &listenerState{l: l, conns: make(map[transport.Conn]struct{})}
}

func (ls *listenerState) addr() string { return ls.l.Addr() }

// track registers an accepted conn; false means the attachment already
// closed and the conn must not be served.
func (ls *listenerState) track(c transport.Conn) bool {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.closed {
		return false
	}
	ls.conns[c] = struct{}{}
	return true
}

func (ls *listenerState) forget(c transport.Conn) {
	ls.mu.Lock()
	delete(ls.conns, c)
	ls.mu.Unlock()
}

// close shuts the listener and every tracked conn. Idempotent.
func (ls *listenerState) close() {
	ls.mu.Lock()
	if ls.closed {
		ls.mu.Unlock()
		return
	}
	ls.closed = true
	conns := make([]transport.Conn, 0, len(ls.conns))
	for c := range ls.conns {
		conns = append(conns, c)
	}
	ls.mu.Unlock()
	ls.l.Close()
	for _, c := range conns {
		c.Close()
	}
}

// binding is the node's current (address, epoch) pair, published
// atomically as one unit: a reader can never observe a new address with
// a pre-move epoch or vice versa. Written only under lifeMu (Start and
// Rebind), read lock-free everywhere.
type binding struct {
	addr  string
	epoch uint64
}

// Node is one live Bristle participant.
//
// There is no node-global mutex. State is split per concern — each piece
// guards itself, and no request-path operation (publish ingest, discover,
// update, register, resolve) takes a lock shared with any other concern:
//
//   - lifeMu guards lifecycle transitions only (listener swaps, the stop
//     flag, flusher startup); handlers never touch it.
//   - self is the atomically published (addr, epoch) binding.
//   - members and registry are copy-on-write snapshots (membership.go):
//     reads are lock-free, writes clone under a private writer mutex.
//   - store and seen are sixteen-way key-sharded tables (store.go).
//   - owned has its own small mutex (publish.go).
//   - breakers live in a sharded per-peer table (rpc.go); pooled
//     sessions in a sharded address table (pool.go).
type Node struct {
	cfg  Config
	key  hashkey.Key
	tr   transport.Transport
	pool *pool

	lifeMu    sync.Mutex
	listener  *listenerState
	stopped   bool
	flusherOn bool // update flusher goroutine started (advertise.go)

	self atomic.Pointer[binding]

	members  membership    // known peers (incl. self); COW snapshots
	registry registryTable // R(self): interested nodes, leased; COW
	store    recordStore   // sharded repository of published records
	seen     epochTable    // sharded newest-ingested TUpdate epochs

	// ids binds each verified joiner's key to a fingerprint of the public
	// identity that earned it (join.go): a later join may re-present the
	// same identity, never a different one, and an unsigned join can never
	// claim a verified key.
	idsMu sync.Mutex
	ids   map[hashkey.Key][32]byte

	// owned is the set of resource keys published at this node's address
	// beyond its own identity key — the records a move must re-home. All
	// of them ride one TPublishBatch per owner replica.
	ownedMu sync.Mutex
	owned   map[hashkey.Key]struct{}

	// loc holds locations this node has *learned* about others — TUpdate
	// pushes (early binding) and discover answers (late binding) write
	// through it; ResolveContext reads it. It is never served to the
	// network, and the resolve hot path shares no lock with the protocol
	// path.
	loc     *loccache.Cache
	flights loccache.Group // coalesces concurrent discoveries per key
	closed  atomic.Bool    // set by Close; gates background refreshes

	peersTbl peerTable // sharded per-peer suspicion circuit breakers
	rtt      rttTable  // sharded per-peer RTT estimators (rtt.go)

	rngMu sync.Mutex
	rng   *rand.Rand // seeds retry jitter; per-node deterministic

	wg      sync.WaitGroup
	updates chan Update

	// runCtx is the node's lifecycle context: canceled by Close, it bounds
	// every background send the node originates on its own behalf (LDT
	// re-advertisement, the update flusher) so shutdown never stalls on
	// in-flight fan-out.
	runCtx    context.Context
	runCancel context.CancelFunc
	updq      *updateQueue // coalescing LDT push queue (advertise.go)
}

// NewNode creates a stopped node. Call Start to begin serving. (New in
// options.go is the preferred constructor.)
func NewNode(cfg Config, tr transport.Transport) *Node {
	cfg = cfg.withDefaults()
	var key hashkey.Key
	switch {
	case cfg.Identity != nil:
		// Self-certifying key: derived from the public identity (region-
		// striped for regional stationary nodes), so the join proof any
		// peer verifies recomputes exactly this value.
		key = hashkey.IDKey(cfg.Identity.Public(), stationaryRegion(cfg), cfg.Regions)
	case !cfg.Mobile && cfg.Region != "" && len(cfg.Regions) > 0:
		// Region-clustered stationary placement: the key lands in one of
		// this region's ring stripes, so consecutive stationary keys — and
		// therefore any record's k-closest replica set — interleave regions.
		key = hashkey.RegionStriped(hashkey.FullRing(), cfg.Name, cfg.Region, cfg.Regions)
	default:
		key = hashkey.FromName(cfg.Name)
	}
	n := &Node{
		cfg:     cfg,
		key:     key,
		tr:      tr,
		rng:     rand.New(rand.NewSource(int64(key))), // deterministic per-node jitter
		updates: make(chan Update, 64),
		owned:   make(map[hashkey.Key]struct{}),
		ids:     make(map[hashkey.Key][32]byte),
		updq:    newUpdateQueue(),
	}
	// The epoch is seeded from the wall clock so a restarted node (fresh
	// process, same name) still outranks its pre-crash publications.
	n.self.Store(&binding{epoch: nextEpoch(0)})
	n.members.init()
	n.registry.init()
	n.store.init()
	n.seen.init()
	n.peersTbl.init()
	n.rtt.init()
	n.runCtx, n.runCancel = context.WithCancel(context.Background())
	n.pool = newPool(tr, cfg.PoolIdleTimeout, cfg.Counters, cfg.Gauges)
	n.loc = loccache.New(loccache.Config{Counters: cfg.Counters, Gauges: cfg.Gauges})
	return n
}

// Key returns the node's hash key.
func (n *Node) Key() hashkey.Key { return n.key }

// Addr returns the node's current dialable address ("" before Start).
// Lock-free.
func (n *Node) Addr() string { return n.self.Load().addr }

// Updates delivers proactive location updates pushed to this node through
// the dissemination trees it registered with.
func (n *Node) Updates() <-chan Update { return n.updates }

// SelfEntry returns the node's current state-pair. Lock-free: the
// (addr, epoch) binding is read as one atomic unit.
func (n *Node) SelfEntry() wire.Entry {
	b := n.self.Load()
	return wire.Entry{
		Key:      n.key,
		Addr:     b.addr,
		Capacity: n.cfg.Capacity,
		TTLMilli: uint32(n.cfg.LeaseTTL / time.Millisecond),
		Mobile:   n.cfg.Mobile,
		Epoch:    b.epoch,
	}
}

// nextEpoch returns a publish epoch strictly greater than prev. Seeding
// from the wall clock makes epochs monotonic across process restarts
// (a rebooted publisher must outrank its own pre-crash records at
// replicas that survived it); the prev+1 arm keeps them monotonic even
// against a clock that stands still or steps backwards.
func nextEpoch(prev uint64) uint64 {
	now := uint64(time.Now().UnixNano())
	if now <= prev {
		return prev + 1
	}
	return now
}

// Start binds a listener on listenAddr (":0" for an ephemeral port) and
// begins serving the protocol.
func (n *Node) Start(listenAddr string) error {
	l, err := n.tr.Listen(listenAddr)
	if err != nil {
		return err
	}
	ls := newListenerState(l)
	n.lifeMu.Lock()
	if n.stopped {
		n.lifeMu.Unlock()
		ls.close()
		return ErrStopped
	}
	n.listener = ls
	b := n.self.Load()
	n.self.Store(&binding{addr: ls.addr(), epoch: b.epoch})
	n.lifeMu.Unlock()
	n.members.update(n.SelfEntry())

	n.wg.Add(1)
	go n.acceptLoop(ls)
	return nil
}

// Close stops serving: the connection pool drains, the listener and every
// accepted connection close, and all server goroutines exit.
func (n *Node) Close() error {
	n.lifeMu.Lock()
	if n.stopped {
		n.lifeMu.Unlock()
		return nil
	}
	n.stopped = true
	ls := n.listener
	n.lifeMu.Unlock()
	n.closed.Store(true) // stop launching background refreshes
	n.runCancel()        // abort in-flight LDT fan-out and flusher sends
	n.updq.close()       // unblock enqueue waiters; the flusher drains out
	n.pool.Close()
	if ls != nil {
		ls.close()
	}
	n.wg.Wait()
	return nil
}

// RebindContext moves a mobile node to a new listener (a new network
// attachment point), republishes its location, and pushes the update
// through its dissemination tree. Connections accepted through the old
// attachment point close with it, exactly as a real relocation severs
// them. Canonical form of Rebind (api.go).
func (n *Node) RebindContext(ctx context.Context, listenAddr string) error {
	if !n.cfg.Mobile {
		return errors.New("live: node is not mobile")
	}
	newL, err := n.tr.Listen(listenAddr)
	if err != nil {
		return err
	}
	ls := newListenerState(newL)
	n.lifeMu.Lock()
	old := n.listener
	n.listener = ls
	// The new binding supersedes every frame sent for the old one: the
	// epoch bumps atomically with the address, before any peer can learn
	// it, so a delayed or duplicated pre-move frame can never displace it
	// anywhere.
	b := n.self.Load()
	n.self.Store(&binding{addr: ls.addr(), epoch: nextEpoch(b.epoch)})
	n.lifeMu.Unlock()
	n.members.update(n.SelfEntry())
	if old != nil {
		old.close() // the old attachment point disappears
	}
	n.wg.Add(1)
	go n.acceptLoop(ls)
	n.logf("rebound to %s", n.Addr())

	if err := n.PublishContext(ctx); err != nil {
		return err
	}
	return n.UpdateRegistryContext(ctx)
}

func (n *Node) logf(format string, args ...interface{}) {
	if n.cfg.Logger != nil {
		n.cfg.Logger.Printf("[%s %s] "+format, append([]interface{}{n.cfg.Name, n.key}, args...)...)
	}
}

func (n *Node) acceptLoop(ls *listenerState) {
	defer n.wg.Done()
	for {
		conn, err := ls.l.Accept()
		if err != nil {
			return
		}
		if !ls.track(conn) {
			conn.Close()
			return
		}
		n.wg.Add(1)
		go n.serveConn(ls, conn)
	}
}

// serveConnWorkers bounds the concurrently running handlers of one
// accepted connection.
const serveConnWorkers = 64

// serveConn serves one accepted connection. Each inbound message is
// dispatched on its own goroutine (bounded by serveConnWorkers) with
// responses serialized by a send mutex — a handler that blocks, or a
// response that is slow to produce, cannot head-of-line-block the other
// exchanges multiplexed on this connection.
//
// Fully handled frames (and shipped responses) go back to the wire
// codec's message pool: the handlers copy everything they keep, so the
// steady-state serve path recycles its messages instead of allocating
// one per frame.
func (n *Node) serveConn(ls *listenerState, conn transport.Conn) {
	defer n.wg.Done()
	defer ls.forget(conn)
	defer conn.Close()
	var sendMu sync.Mutex
	sem := make(chan struct{}, serveConnWorkers)
	var handlers sync.WaitGroup
	for {
		msg, err := conn.Recv()
		if err != nil {
			break
		}
		sem <- struct{}{}
		handlers.Add(1)
		go func(msg *wire.Message) {
			defer handlers.Done()
			defer func() { <-sem }()
			resp := n.handle(msg)
			wire.PutMessage(msg)
			if resp != nil {
				sendMu.Lock()
				err := conn.Send(resp)
				sendMu.Unlock()
				wire.PutMessage(resp)
				if err != nil {
					return // conn broken; the Recv loop is failing too
				}
			}
		}(msg)
	}
	handlers.Wait()
}

// handle dispatches one inbound message and returns the response frame
// (nil for one-way messages).
func (n *Node) handle(m *wire.Message) *wire.Message {
	switch m.Type {
	case wire.TPing:
		return &wire.Message{Type: wire.TPong, Seq: m.Seq}

	case wire.TJoin:
		return n.handleJoin(m)

	case wire.TPublish:
		n.handlePublish(m)
		return &wire.Message{Type: wire.TPublishAck, Seq: m.Seq, Found: true}

	case wire.TPublishBatch:
		n.handlePublishBatch(m)
		return &wire.Message{Type: wire.TPublishAck, Seq: m.Seq, Found: true}

	case wire.TDiscover:
		return n.handleDiscover(m)

	case wire.TRegister:
		return n.handleRegister(m)

	case wire.TUpdate:
		n.handleUpdate(m)
		return nil

	case wire.TLeafExchange:
		return n.handleLeafExchange(m)

	default:
		n.logf("dropping unknown message type %v", m.Type)
		return nil
	}
}
