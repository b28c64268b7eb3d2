// Package core implements Bristle, the mobile structured peer-to-peer
// architecture of Hsiao & King (IPDPS 2003).
//
// A Bristle network deploys two hash-based structured overlays over one
// population of N peers (Section 2.1):
//
//   - the mobile layer: all N peers (stationary and mobile) form the data
//     overlay on which application messages are routed;
//   - the stationary layer: the N−M stationary peers form a second overlay
//     acting as the location-information repository that resolves the
//     network addresses of mobile peers (_discovery, Figure 2).
//
// Mobile peers publish their current network attachment point to the
// stationary peer whose key is closest to their own (plus replicas), push
// updates proactively to registered interested peers through a
// capacity-aware location dissemination tree (Section 2.3, package ldt),
// and let everyone else resolve reactively through the stationary layer
// (late binding). Keys are assigned by either the scrambled or the
// clustered naming scheme of Section 3; with clustered naming a route
// between two stationary peers never needs a mobile peer's help while
// stationary peers are at least half the population (Equation 1).
package core

import (
	"fmt"
	"math/rand"

	"bristle/internal/hashkey"
	"bristle/internal/overlay"
	"bristle/internal/simnet"
)

// Kind classifies a peer as stationary or mobile (Section 2.1).
type Kind uint8

const (
	// Stationary peers have fixed network locations and form the
	// location-management (stationary) layer.
	Stationary Kind = iota
	// Mobile peers may change their network attachment points.
	Mobile
)

// String returns "stationary" or "mobile".
func (k Kind) String() string {
	if k == Stationary {
		return "stationary"
	}
	return "mobile"
}

// Naming selects the key assignment scheme of Section 3.
type Naming uint8

const (
	// Scrambled assigns uniformly random keys to every peer (Figure 6a).
	Scrambled Naming = iota
	// Clustered assigns stationary peers keys inside the contiguous arc
	// [L, U] and mobile peers keys outside it (Figure 6b), so stationary-
	// to-stationary routes can avoid mobile forwarders entirely.
	Clustered
)

// String returns "scrambled" or "clustered".
func (n Naming) String() string {
	if n == Scrambled {
		return "scrambled"
	}
	return "clustered"
}

// PeerID identifies a peer within a Network. IDs are dense and stable.
type PeerID int32

// NoPeer is the sentinel for "no peer".
const NoPeer PeerID = -1

// Substrate is the hash-based structured overlay interface Bristle's two
// layers run on. The paper's stationary layer "can be any HS-P2P, e.g.,
// CAN, Chord, Pastry, Tapestry, Tornado" (§2.1), and its conclusion
// claims the design applies to existing HS-P2P overlays — this interface
// is that claim made concrete. internal/overlay.Ring (the Tornado-style
// bidirectional ring) and internal/chord.Chord (unidirectional successor
// routing) both satisfy it.
type Substrate interface {
	// AddNode joins a node; duplicate keys are rejected.
	AddNode(key hashkey.Key, host simnet.HostID) (overlay.NodeID, error)
	// RemoveNode departs a node, repairing neighbors' state.
	RemoveNode(id overlay.NodeID) error
	// Size returns the live-node count.
	Size() int
	// Stabilize rebuilds routing state (periodic refresh).
	Stabilize()
	// Alive reports node liveness.
	Alive(id overlay.NodeID) bool
	// RefOf returns a live node's key/ID pair.
	RefOf(id overlay.NodeID) (overlay.Ref, bool)
	// HostOf returns a live node's underlay host.
	HostOf(id overlay.NodeID) (simnet.HostID, bool)
	// NeighborsOf returns a node's distinct routing-state entries.
	NeighborsOf(id overlay.NodeID) []overlay.Ref
	// ClosestRef returns the live node responsible for target under the
	// substrate's own closeness definition (Figure 2's note: "different
	// HS-P2Ps have different definitions for the closeness").
	ClosestRef(target hashkey.Key) (overlay.Ref, bool)
	// NeighborhoodRefs returns the k-node replication set for key.
	NeighborhoodRefs(key hashkey.Key, k int) []overlay.Ref
	// Refs lists all live nodes in key order.
	Refs() []overlay.Ref
	// StateSizeOf returns a node's routing-table entry count.
	StateSizeOf(id overlay.NodeID) int
	// Route forwards toward the node responsible for target.
	Route(src overlay.NodeID, target hashkey.Key, visit overlay.HopVisitor) (overlay.RouteResult, error)
	// RouteWithOptions is Route under an explicit discipline.
	RouteWithOptions(src overlay.NodeID, target hashkey.Key, opts overlay.RouteOptions, visit overlay.HopVisitor) (overlay.RouteResult, error)
}

// StatePair is the paper's <hash key, network address> tuple with the
// lease (TTL) of Section 2.3.2 attached. A zero Addr is the paper's
// "null": known key, unresolved address.
type StatePair struct {
	Key     hashkey.Key
	Addr    simnet.Addr
	Expires simnet.Time
}

// ValidAt reports whether the lease is unexpired at time now. It says
// nothing about whether the address still reaches the peer.
func (s StatePair) ValidAt(now simnet.Time) bool {
	return !s.Addr.IsZero() && now < s.Expires
}

// Config tunes a Bristle network.
type Config struct {
	// Naming selects scrambled or clustered key assignment.
	Naming Naming

	// StationaryFraction is ∇ = (U−L)/ρ, the fraction of the ring reserved
	// for stationary keys under clustered naming. Zero means "derive from
	// the population": callers that know N−M and N should set it to
	// (N−M)/N as the paper assumes; AddPeer falls back to 0.5.
	StationaryFraction float64

	// Overlay configures both rings' geometry.
	Overlay overlay.Config

	// ReplicationFactor is how many stationary peers hold each mobile
	// peer's location record (the availability replication of §2.3.2).
	// Minimum effective value 1.
	ReplicationFactor int

	// LeaseTTL is the validity period of published locations and cached
	// state-pairs. Zero means leases never expire.
	LeaseTTL simnet.Time

	// UnitCost is v, the cost of one LDT update message (Figure 4).
	UnitCost float64

	// LDTLocality enables locality-aware LDT partitioning (Figure 9).
	LDTLocality bool

	// CacheResolved controls whether peers cache addresses learned through
	// _discovery. Real deployments do (the Figure 2 update of the local
	// state-pair); the Figure 7 experiment disables it to measure
	// steady-state per-route resolution cost.
	CacheResolved bool

	// NewSubstrate constructs the overlay both layers run on. Nil selects
	// the default internal/overlay ring (the Tornado role). Supply
	// chord.New (wrapped) or any other Substrate implementation to deploy
	// Bristle on a different HS-P2P, as the paper's conclusion envisions.
	NewSubstrate func(overlay.Config, *simnet.Network) Substrate

	// UpdateLossRate injects failure into LDT update delivery: each
	// registry member independently misses a pushed update with this
	// probability — the §2.3.2 scenario ("a registry node may not receive
	// the updated location issued from the mobile node") that motivates
	// leases and late binding. 0 disables injection.
	UpdateLossRate float64
}

// DefaultConfig returns production-flavored settings.
func DefaultConfig() Config {
	return Config{
		Naming:            Clustered,
		Overlay:           overlay.DefaultConfig(),
		ReplicationFactor: 3,
		LeaseTTL:          0,
		UnitCost:          1,
		LDTLocality:       true,
		CacheResolved:     true,
	}
}

func (c *Config) sanitize() {
	if c.ReplicationFactor < 1 {
		c.ReplicationFactor = 1
	}
	if c.UnitCost <= 0 {
		c.UnitCost = 1
	}
}

// Peer is one Bristle participant.
type Peer struct {
	ID       PeerID
	Kind     Kind
	Key      hashkey.Key
	Host     simnet.HostID
	Capacity float64 // C_X reported at registration (Section 2.3.1)
	Used     float64 // present workload Used_X (Figure 4)

	// MobileRingID is the peer's node in the mobile layer (all peers).
	MobileRingID overlay.NodeID
	// StatRingID is the peer's node in the stationary layer, or
	// overlay.NoNode for mobile peers.
	StatRingID overlay.NodeID

	// entry is the stationary peer used to inject discovery and publish
	// messages into the stationary layer; a stationary peer is its own
	// entry.
	entry *Peer

	// registry is R(i): the peers registered as interested in this peer's
	// movement (Section 2.3.1), in registration order.
	registry []*Peer

	// cache holds this peer's learned state-pairs for other peers,
	// keyed by PeerID: the distributed states of Section 1.
	cache map[PeerID]StatePair

	// store is the location repository fragment held by a stationary
	// peer: key → published state-pair of a mobile peer.
	store map[hashkey.Key]StatePair
}

// Avail returns the peer's remaining capacity (Figure 4).
func (p *Peer) Avail() float64 { return p.Capacity - p.Used }

// Registry returns R(p), the peers registered to p.
func (p *Peer) Registry() []*Peer { return p.registry }

// Network is a Bristle deployment: the underlay, both overlay layers, and
// all peers.
type Network struct {
	cfg Config

	// Net is the underlay; Sim its (optional) event clock.
	Net *simnet.Network
	Sim *simnet.Simulator

	// MobileRing is the data overlay containing every peer.
	MobileRing Substrate
	// StationaryRing is the location-management overlay of stationary
	// peers only.
	StationaryRing Substrate

	peers    []*Peer
	byMobile map[overlay.NodeID]*Peer
	byStat   map[overlay.NodeID]*Peer

	arc    hashkey.Arc // stationary key region under clustered naming
	hasArc bool
	rng    *rand.Rand

	// Stats accumulates traffic accounting across operations.
	Stats Stats
}

// Stats counts Bristle control- and data-plane activity.
type Stats struct {
	DataHops        uint64  // application-level hops of data routes
	DataCost        float64 // underlay cost of data hops
	Discoveries     uint64  // _discovery operations performed
	DiscoveryHops   uint64  // application-level hops spent resolving
	DiscoveryCost   float64
	DiscoveryMisses uint64 // discoveries that found no valid record
	Publishes       uint64 // location publications to the stationary layer
	PublishHops     uint64
	PublishCost     float64
	UpdateMessages  uint64 // LDT advertisement messages (tree edges)
	UpdateCost      float64
	UpdatesLost     uint64 // LDT pushes dropped by failure injection
	FailedSends     uint64 // sends to stale cached addresses
	FailedSendCost  float64
}

// NewNetwork creates an empty Bristle deployment over net. sim may be nil
// for synchronous use (leases then compare against explicit times).
func NewNetwork(cfg Config, net *simnet.Network, sim *simnet.Simulator, rng *rand.Rand) *Network {
	cfg.sanitize()
	n := &Network{
		cfg:      cfg,
		Net:      net,
		Sim:      sim,
		byMobile: make(map[overlay.NodeID]*Peer),
		byStat:   make(map[overlay.NodeID]*Peer),
		rng:      rng,
	}
	mk := cfg.NewSubstrate
	if mk == nil {
		mk = func(oc overlay.Config, sn *simnet.Network) Substrate {
			return overlay.NewRing(oc, sn)
		}
	}
	n.MobileRing = mk(cfg.Overlay, net)
	n.StationaryRing = mk(cfg.Overlay, net)
	if cfg.Naming == Clustered {
		frac := cfg.StationaryFraction
		if frac <= 0 || frac >= 1 {
			frac = 0.5
		}
		n.arc = hashkey.StationaryArc(frac)
		n.hasArc = true
	}
	return n
}

// Config returns the network's configuration (a copy).
func (n *Network) Config() Config { return n.cfg }

// StationaryArc returns the clustered-naming key region and whether one is
// in force.
func (n *Network) StationaryArc() (hashkey.Arc, bool) { return n.arc, n.hasArc }

// NumPeers returns the total number of peers ever added.
func (n *Network) NumPeers() int { return len(n.peers) }

// Peers returns all peers in creation order. The slice is shared; treat it
// as read-only.
func (n *Network) Peers() []*Peer { return n.peers }

// Peer returns the peer with the given ID, or nil.
func (n *Network) Peer(id PeerID) *Peer {
	if id < 0 || int(id) >= len(n.peers) {
		return nil
	}
	return n.peers[id]
}

// PeerByMobileNode maps a mobile-ring node to its peer.
func (n *Network) PeerByMobileNode(id overlay.NodeID) *Peer { return n.byMobile[id] }

// now returns the current virtual time (zero without a simulator).
func (n *Network) now() simnet.Time {
	if n.Sim != nil {
		return n.Sim.Now()
	}
	return 0
}

// leaseUntil computes a lease expiry from now.
func (n *Network) leaseUntil(now simnet.Time) simnet.Time {
	if n.cfg.LeaseTTL == 0 {
		return simnet.Inf
	}
	return now + n.cfg.LeaseTTL
}

// assignKey draws a key for a new peer under the configured naming scheme.
func (n *Network) assignKey(kind Kind) hashkey.Key {
	if n.cfg.Naming == Scrambled || !n.hasArc {
		return hashkey.Random(n.rng)
	}
	if kind == Stationary {
		return n.arc.RandomIn(n.rng)
	}
	return n.arc.RandomOutside(n.rng)
}

// AddPeer joins a peer of the given kind and capacity: attaches a host to
// a random stub router, assigns a key per the naming scheme, joins the
// mobile ring (and the stationary ring for stationary peers), and picks a
// stationary entry point. Peers should be added before traffic starts;
// dynamic join/leave is exercised through Join/Leave.
func (n *Network) AddPeer(kind Kind, capacity float64) (*Peer, error) {
	host := n.Net.AttachHostRandom(n.rng)
	return n.addPeerOnHost(kind, capacity, host)
}

func (n *Network) addPeerOnHost(kind Kind, capacity float64, host simnet.HostID) (*Peer, error) {
	p := &Peer{
		ID:       PeerID(len(n.peers)),
		Kind:     kind,
		Host:     host,
		Capacity: capacity,
		cache:    make(map[PeerID]StatePair),
	}
	// Retry on (astronomically unlikely) key collisions.
	for tries := 0; ; tries++ {
		p.Key = n.assignKey(kind)
		id, err := n.MobileRing.AddNode(p.Key, host)
		if err == nil {
			p.MobileRingID = id
			break
		}
		if tries > 64 {
			return nil, fmt.Errorf("core: cannot place peer: %v", err)
		}
	}
	p.StatRingID = overlay.NoNode
	if kind == Stationary {
		id, err := n.StationaryRing.AddNode(p.Key, host)
		if err != nil {
			return nil, fmt.Errorf("core: stationary ring join: %v", err)
		}
		p.StatRingID = id
		p.store = make(map[hashkey.Key]StatePair)
		p.entry = p
	}
	n.peers = append(n.peers, p)
	n.byMobile[p.MobileRingID] = p
	if p.StatRingID != overlay.NoNode {
		n.byStat[p.StatRingID] = p
	}
	if kind == Mobile {
		n.assignEntry(p)
	}
	return p, nil
}

// assignEntry picks the peer's stationary-layer entry point: the
// underlay-nearest of a few random stationary peers (exploiting network
// proximity as §3 optimization (1) suggests).
func (n *Network) assignEntry(p *Peer) {
	stats := n.StationaryRing.Refs()
	if len(stats) == 0 {
		p.entry = nil
		return
	}
	const choices = 3
	var best *Peer
	bestCost := 0.0
	for i := 0; i < choices; i++ {
		cand := n.byStat[stats[n.rng.Intn(len(stats))].ID]
		c := n.Net.Cost(p.Host, cand.Host)
		if best == nil || c < bestCost {
			best, bestCost = cand, c
		}
	}
	p.entry = best
}

// RefreshEntries re-picks entry points for all mobile peers; call after
// adding the stationary population when peers were added out of order.
func (n *Network) RefreshEntries() {
	for _, p := range n.peers {
		if p.Kind == Mobile {
			n.assignEntry(p)
		}
	}
}

// Stabilize rebuilds both rings' routing state (periodic refresh).
func (n *Network) Stabilize() {
	n.MobileRing.Stabilize()
	n.StationaryRing.Stabilize()
}
