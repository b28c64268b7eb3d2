package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"bristle/internal/hashkey"
	"bristle/internal/live"
	"bristle/internal/transport"
	"bristle/internal/wire"
)

// Traced blocks probe the layers under one resolve in every ladderEvery
// ops: often enough for stable medians, rare enough that the probes
// (about 150 µs each) stay a few percent of the block.
var ladderEvery = map[string]int{"resolve-hot": 2048, "resolve-cold": 64}

// resolveResult is what the closed-loop resolve window measured.
type resolveResult struct {
	blocks  []*hist // every resolve, ns, by the block of the window it ended in
	hit     *hist   // traced blocks: resolves the cache held a fresh entry for
	miss    *hist   // traced blocks: the rest
	ops     int
	failed  int      // errors and answers that were never the key's binding
	samples []string // the first few failures, for the error report
	elapsed time.Duration
	usage   usage
}

// merge joins the results of two resolve windows: their blocks in order,
// everything else summed.
func (r resolveResult) merge(o resolveResult) resolveResult {
	r.blocks = append(append([]*hist(nil), r.blocks...), o.blocks...)
	r.hit.merge(o.hit)
	r.miss.merge(o.miss)
	r.ops += o.ops
	r.failed += o.failed
	r.samples = keepSamples(r.samples, o.samples...)
	r.elapsed += o.elapsed
	r.usage = r.usage.plus(o.usage)
	return r
}

// tracedBlock reports whether a traced window traces block i. Traced and
// untraced blocks alternate, so the tracing overhead is measured against
// blocks run at the same time rather than against another window.
func tracedBlock(i int) bool { return i%2 == 1 }

// runResolves drives clients closed-loop goroutines through resolver for
// d: each sends its next resolve when the previous one returns. With tr
// set, every op of a traced block is classified by a cache peek first and
// every ladderEvery-th op is followed by the ladder probes, all recorded
// as spans.
func runResolves(ctx context.Context, c *cluster, resolver *member, b *bindings, workload string, clients int, d time.Duration, tr *tracer) (resolveResult, error) {
	res := resolveResult{blocks: newHists(resolveBlocks), hit: newHist(), miss: newHist()}
	type clientOut struct {
		blocks      []*hist
		hit, miss   *hist
		ops, failed int
		samples     []string
		err         error
	}
	outs := make([]clientOut, clients)
	scheds := make([][]int32, clients)
	bufs := make([]*spanBuf, clients)
	probes := make([]*ladder, clients)
	for i := range scheds {
		scheds[i] = opSchedule(workload, c.seed, i)
		bufs[i] = tr.buffer()
		if tr != nil {
			p, err := newLadder(resolver.node, c.host)
			if err != nil {
				return res, err
			}
			defer p.close()
			probes[i] = p
		}
	}
	r := resolver.node
	every := ladderEvery[workload]
	u0 := readUsage()
	start := time.Now()
	deadline := start.Add(d)
	blockLen := d / resolveBlocks
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			out := clientOut{blocks: newHists(resolveBlocks), hit: newHist(), miss: newHist()}
			ops, buf, probe := scheds[ci], bufs[ci], probes[ci]
			for i := 0; ; i++ {
				idx := ops[i&(opRing-1)]
				key := c.keys[idx]
				traced, cached := false, false
				if buf != nil {
					traced = tracedBlock(blockOf(time.Since(start), blockLen, resolveBlocks))
				}
				if traced {
					_, cached = r.CachedAddr(key)
				}
				t0 := time.Now()
				addr, err := r.ResolveContext(ctx, key)
				t1 := time.Now()
				lat := t1.Sub(t0)
				out.blocks[blockOf(t1.Sub(start), blockLen, resolveBlocks)].add(lat)
				out.ops++
				if m := int(idx) / keysPerMobile; err != nil || !b.fresh(m, addr) {
					out.failed++
					if len(out.samples) < maxSamples {
						out.samples = append(out.samples, fmt.Sprintf("resolve of key %d (m%d) via %s gave %q, %v; bound to %q",
							idx, m, resolver.name, addr, err, *b.cur[m].Load()))
					}
				}
				if traced {
					if cached {
						out.hit.add(lat)
					} else {
						out.miss.add(lat)
					}
					if i%every == 0 {
						op := uint64(ci)<<32 | uint64(i)
						s := int64(t0.Sub(buf.tr.epoch))
						id := buf.record("live.resolve", op, 0, s, s+int64(lat))
						if err := probe.run(ctx, buf, op, id, key); err != nil {
							out.err = err
							break
						}
					}
				}
				if !t1.Before(deadline) {
					break
				}
			}
			outs[ci] = out
		}(ci)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.usage = readUsage().since(u0)
	for _, o := range outs {
		if o.err != nil {
			return res, o.err
		}
		for i, h := range o.blocks {
			res.blocks[i].merge(h)
		}
		res.hit.merge(o.hit)
		res.miss.merge(o.miss)
		res.ops += o.ops
		res.failed += o.failed
		res.samples = keepSamples(res.samples, o.samples...)
	}
	return res, nil
}

// ladder probes the layers under one resolve, on the resolve's key and on
// the replica the resolver would ask first:
//
//	live.discover       DiscoverContext: RPC plus the replica's handler
//	live.rpc_ping       pooled PingContext to that replica: RPC alone
//	transport.roundtrip a discover-shaped frame over a bare transport.TCP
//	                    connection to an echo server the benchmark owns
//	wire.codec          AppendFrame and Decode of the discover reply
type ladder struct {
	r     *live.Node
	dir   []wire.Entry
	echo  *echoServer
	conn  transport.Conn
	frame []byte
	turn  int // which network probe goes first
}

func newLadder(r *live.Node, host string) (*ladder, error) {
	e, err := startEcho(host)
	if err != nil {
		return nil, err
	}
	conn, err := (&transport.TCP{}).Dial(e.addr())
	if err != nil {
		e.close()
		return nil, fmt.Errorf("dial echo: %w", err)
	}
	return &ladder{r: r, dir: stationaryEntries(r), echo: e, conn: conn}, nil
}

func (l *ladder) close() {
	l.conn.Close()
	l.echo.close()
}

// roundTrip sends a discover-shaped frame to the echo server and reads
// its reply.
func (l *ladder) roundTrip(key hashkey.Key) error {
	if err := l.conn.Send(&wire.Message{Type: wire.TDiscover, Key: key}); err != nil {
		return err
	}
	m, err := l.conn.Recv()
	if err == nil {
		wire.PutMessage(m)
	}
	return err
}

// firstReplica orders key's replica set the way the resolver contacts
// it: suspects last, then by the resolver's measured RTT.
func (l *ladder) firstReplica(key hashkey.Key) wire.Entry {
	cands := append([]wire.Entry(nil), l.dir...)
	reps := live.SelectReplicas(cands, key, 2, 0)
	st := l.r.Stats()
	suspect := make(map[string]bool)
	eff := make(map[string]time.Duration)
	for _, p := range st.PeerRTTs {
		suspect[p.Addr] = p.Suspect
		eff[p.Addr] = p.RTT
	}
	live.OrderReplicas(reps, suspect, eff)
	return reps[0]
}

// discoverReply is the frame a replica answers a discover with.
func discoverReply(key hashkey.Key, addr string) *wire.Message {
	return &wire.Message{Type: wire.TDiscoverResp, Key: key, Found: true,
		Self: wire.Entry{Key: key, Addr: addr, TTLMilli: uint32(leaseTTL / time.Millisecond), Epoch: uint64(time.Now().UnixNano())}}
}

func (l *ladder) run(ctx context.Context, buf *spanBuf, op, parent uint64, key hashkey.Key) error {
	r := l.r
	rep := l.firstReplica(key)
	var addr string
	probes := [...]struct {
		name string
		call func() error
	}{
		{"live.discover", func() (err error) {
			addr, err = r.DiscoverContext(ctx, key)
			return err
		}},
		{"live.rpc_ping", func() error { return r.PingContext(ctx, rep.Addr) }},
		{"transport.roundtrip", func() error { return l.roundTrip(key) }},
	}
	// The first round trip after a resolve pays for waking idle threads,
	// so the network probes take turns going first.
	l.turn++
	for i := range probes {
		p := probes[(l.turn+i)%len(probes)]
		s := buf.now()
		err := p.call()
		buf.record(p.name, op, parent, s, buf.now())
		if err != nil {
			return fmt.Errorf("ladder %s: %w", p.name, err)
		}
	}
	reply := discoverReply(key, addr)
	s := buf.now()
	var m *wire.Message
	var err error
	l.frame, err = wire.AppendFrame(l.frame[:0], reply)
	if err == nil {
		m, err = wire.Decode(bytes.NewReader(l.frame))
	}
	buf.record("wire.codec", op, parent, s, buf.now())
	if err != nil {
		return fmt.Errorf("ladder codec: %w", err)
	}
	wire.PutMessage(m)
	return nil
}

// echoServer answers every frame with a discover reply for the same key,
// over the same transport.TCP the nodes use.
type echoServer struct {
	l  transport.Listener
	wg sync.WaitGroup

	mu    sync.Mutex
	conns []transport.Conn
}

func startEcho(host string) (*echoServer, error) {
	l, err := (&transport.TCP{}).Listen(host + ":0")
	if err != nil {
		return nil, fmt.Errorf("echo listen: %w", err)
	}
	e := &echoServer{l: l}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			e.mu.Lock()
			e.conns = append(e.conns, conn)
			e.mu.Unlock()
			e.wg.Add(1)
			go func() {
				defer e.wg.Done()
				for {
					m, err := conn.Recv()
					if err != nil {
						return
					}
					reply := discoverReply(m.Key, "127.0.0.1:1")
					wire.PutMessage(m)
					if err := conn.Send(reply); err != nil {
						return
					}
				}
			}()
		}
	}()
	return e, nil
}

func (e *echoServer) addr() string { return e.l.Addr() }

func (e *echoServer) close() {
	e.l.Close()
	e.mu.Lock()
	for _, c := range e.conns {
		c.Close()
	}
	e.mu.Unlock()
	e.wg.Wait()
}
