package core

import (
	"errors"
	"fmt"

	"bristle/internal/hashkey"
	"bristle/internal/overlay"
)

// ErrUnresolvable is returned when a data route hits a mobile forwarder
// whose address cannot be resolved (discovery miss) — the packet is
// dropped.
var ErrUnresolvable = errors.New("core: next-hop address unresolvable")

// RouteStats summarizes one data route (Figure 2's _route executed hop by
// hop, including every address resolution performed on the way).
type RouteStats struct {
	// Dest is the peer responsible for the target key.
	Dest *Peer
	// DataHops counts data-plane forwards (overlay hops of the route).
	DataHops int
	// TotalHops counts all application-level hops: data forwards plus
	// every hop of every discovery, as measured in Figure 7(a).
	TotalHops int
	// Cost is the summed underlay path cost of all of the above — the
	// "actual path cost" series of Figure 7(b).
	Cost float64
	// Discoveries is the number of _discovery operations the route needed.
	Discoveries int
	// FailedSends counts transmissions to cached-but-stale addresses.
	FailedSends int
}

// RouteData routes a data message from src toward the peer whose key is
// closest to target on the mobile layer, resolving mobile forwarders'
// addresses through the stationary layer as needed (Figure 2):
//
//	if p.addr is null or invalid:  p.addr = _discovery(p.key)
//	_forward(p.addr, j, d)
//
// Stationary next-hops are always directly addressable (their locations
// never change). Mobile next-hops are addressed from the local state-pair
// cache when fresh; otherwise the route pays a failed transmission (stale
// cache), then a discovery, then the forward. A discovery miss drops the
// packet with ErrUnresolvable.
func (n *Network) RouteData(src *Peer, target hashkey.Key) (RouteStats, error) {
	return n.RouteDataPolicy(src, target, RoutePolicy{})
}

// RoutePolicy selects a routing discipline variant for RouteDataPolicy.
type RoutePolicy struct {
	// Unidirectional forces every route clockwise regardless of arc
	// length — the discipline the Equation (1) worst-case analysis
	// assumes, where a route from x1 to x2 with x1 > x2 must wrap through
	// the mobile key region.
	Unidirectional bool
	// PreferStationary applies Section 3 optimization (2): among the
	// next-hop candidates that advance toward the target, a stationary
	// forwarder is always chosen over a mobile one, minimizing the
	// stationary/mobile "flip-flop".
	PreferStationary bool
}

// RouteDataPolicy is RouteData under an explicit routing discipline.
func (n *Network) RouteDataPolicy(src *Peer, target hashkey.Key, pol RoutePolicy) (RouteStats, error) {
	rs := RouteStats{}
	var routeErr error

	visit := func(h overlay.Hop) bool {
		from := n.byMobile[h.From.ID]
		to := n.byMobile[h.To.ID]
		if from == nil || to == nil {
			routeErr = fmt.Errorf("core: hop references unknown peer")
			return false
		}
		ok := n.forwardTo(from, to, &rs)
		if !ok {
			routeErr = ErrUnresolvable
		}
		return ok
	}

	var opts overlay.RouteOptions
	if pol.Unidirectional {
		cw := hashkey.CW
		opts.ForceDir = &cw
	}
	if pol.PreferStationary {
		opts.Prefer = func(ref overlay.Ref) bool {
			p := n.byMobile[ref.ID]
			return p != nil && p.Kind == Stationary
		}
	}

	res, err := n.MobileRing.RouteWithOptions(src.MobileRingID, target, opts, visit)
	if err != nil {
		return rs, err
	}
	if routeErr != nil {
		return rs, routeErr
	}
	rs.Dest = n.byMobile[res.Dest.ID]
	n.Stats.DataHops += uint64(rs.DataHops)
	n.Stats.DataCost += rs.Cost
	return rs, nil
}

// forwardTo accounts for one data forward from peer a to peer b,
// performing address resolution if required. It returns false when the
// forward is impossible (unresolvable address).
func (n *Network) forwardTo(a, b *Peer, rs *RouteStats) bool {
	now := n.now()
	if b.Kind == Stationary {
		// Stationary peers never move: the state-pair learned at join time
		// stays valid forever.
		rs.DataHops++
		rs.TotalHops++
		rs.Cost += n.Net.Cost(a.Host, b.Host)
		return true
	}

	// Mobile next hop: consult a's cached state-pair for b.
	sp, cached := a.cache[b.ID]
	if cached && sp.ValidAt(now) {
		if n.Net.Valid(sp.Addr) {
			rs.DataHops++
			rs.TotalHops++
			rs.Cost += n.Net.Cost(a.Host, b.Host)
			return true
		}
		// Lease alive but the peer moved: the transmission is wasted
		// (travels to the stale attachment point), then we resolve.
		rs.FailedSends++
		rs.TotalHops++
		rs.Cost += n.Net.CostToAddr(a.Host, sp.Addr)
		n.Stats.FailedSends++
		n.Stats.FailedSendCost += n.Net.CostToAddr(a.Host, sp.Addr)
	}

	rec, op, err := n.Discover(a, b.Key)
	rs.Discoveries++
	rs.TotalHops += op.Hops
	rs.Cost += op.Cost
	if err != nil {
		return false
	}
	_ = rec
	// Forward using the freshly resolved address.
	rs.DataHops++
	rs.TotalHops++
	rs.Cost += n.Net.Cost(a.Host, b.Host)
	return true
}

// SendStats reports one direct (non-overlay-routed) transmission from a
// correspondent to a peer it tracks: the end-to-end pattern of Table 1.
type SendStats struct {
	Cost       float64 // total underlay cost paid, including resolution
	DirectCost float64 // cost of the ideal direct path
	Discovered bool    // a _discovery was needed (late binding)
	FailedSend bool    // a transmission to a stale address was wasted
}

// SendDirect delivers an application message from x straight to y using
// x's state-pair for y: fresh cache ⇒ one direct transmission; stale cache
// ⇒ wasted transmission, then _discovery, then the real send; no cache ⇒
// discovery first. This is how Bristle preserves end-to-end semantics
// across movement (Table 1): the correspondent keeps addressing the same
// key and resolves the current attachment point as needed.
func (n *Network) SendDirect(x, y *Peer) (SendStats, error) {
	now := n.now()
	ss := SendStats{DirectCost: n.Net.Cost(x.Host, y.Host)}

	sp, cached := x.cache[y.ID]
	if cached && sp.ValidAt(now) {
		if n.Net.Valid(sp.Addr) {
			ss.Cost = ss.DirectCost
			return ss, nil
		}
		ss.FailedSend = true
		ss.Cost += n.Net.CostToAddr(x.Host, sp.Addr)
		n.Stats.FailedSends++
		n.Stats.FailedSendCost += n.Net.CostToAddr(x.Host, sp.Addr)
	}

	rec, op, err := n.Discover(x, y.Key)
	ss.Discovered = true
	ss.Cost += op.Cost
	if err != nil {
		return ss, err
	}
	if n.cfg.CacheResolved {
		x.cache[y.ID] = rec
	}
	ss.Cost += ss.DirectCost
	return ss, nil
}

// Lookup returns the peer currently responsible for key on the mobile
// layer without generating traffic (an oracle for tests and examples).
func (n *Network) Lookup(key hashkey.Key) *Peer {
	ref, ok := n.MobileRing.ClosestRef(key)
	if !ok {
		return nil
	}
	return n.byMobile[ref.ID]
}

// LookupStationary returns the stationary peer responsible for key on the
// stationary layer.
func (n *Network) LookupStationary(key hashkey.Key) *Peer {
	ref, ok := n.StationaryRing.ClosestRef(key)
	if !ok {
		return nil
	}
	return n.byStat[ref.ID]
}
