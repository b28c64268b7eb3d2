package live

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"bristle/internal/transport"
)

func TestMaintenanceRenewsLeases(t *testing.T) {
	mem := transport.NewMem()
	server := NewNode(Config{Name: "srv", Capacity: 3}, mem)
	if err := server.Start(""); err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	mob := NewNode(Config{
		Name: "mob", Capacity: 2, Mobile: true,
		LeaseTTL: 80 * time.Millisecond,
	}, mem)
	if err := mob.Start(""); err != nil {
		t.Fatal(err)
	}
	defer mob.Close()
	if err := mob.JoinViaContext(context.Background(), server.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := mob.Publish(); err != nil {
		t.Fatal(err)
	}

	stop := mob.StartMaintenance(MaintainConfig{
		RenewInterval: 25 * time.Millisecond,
		Rand:          rand.New(rand.NewSource(1)),
	})
	defer stop()

	// Well past the raw TTL, the record must still resolve thanks to the
	// periodic republish (early binding).
	time.Sleep(300 * time.Millisecond)
	if _, err := server.Discover(mob.Key()); err != nil {
		t.Fatalf("lease lapsed despite renewal: %v", err)
	}

	// After stopping maintenance the record ages out.
	stop()
	time.Sleep(200 * time.Millisecond)
	if _, err := server.Discover(mob.Key()); err != ErrNotFound {
		t.Fatalf("record survived TTL without renewal: %v", err)
	}
}

func TestMaintenanceGossipPropagatesMembership(t *testing.T) {
	mem := transport.NewMem()
	var all []*Node
	mk := func(name string) *Node {
		nd := NewNode(Config{Name: name, Capacity: 2}, mem)
		if err := nd.Start(""); err != nil {
			t.Fatal(err)
		}
		all = append(all, nd)
		return nd
	}
	boot := mk("boot")
	a := mk("a")
	b := mk("b")
	c := mk("c")
	defer func() {
		for _, nd := range all {
			nd.Close()
		}
	}()

	// a and b join via boot; c joins via a — nobody knows everyone yet.
	for i, nd := range []*Node{a, b} {
		if err := nd.JoinViaContext(context.Background(), boot.Addr()); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
	if err := c.JoinViaContext(context.Background(), a.Addr()); err != nil {
		t.Fatal(err)
	}

	var stops []func()
	for i, nd := range all {
		stops = append(stops, nd.StartMaintenance(MaintainConfig{
			GossipInterval: 10 * time.Millisecond,
			Rand:           rand.New(rand.NewSource(int64(i))),
		}))
	}
	defer func() {
		for _, s := range stops {
			s()
		}
	}()

	deadline := time.After(5 * time.Second)
	for {
		complete := true
		for _, nd := range all {
			if len(nd.KnownPeers()) != len(all) {
				complete = false
			}
		}
		if complete {
			return
		}
		select {
		case <-deadline:
			for _, nd := range all {
				t.Logf("%v knows %d peers", nd.Key(), len(nd.KnownPeers()))
			}
			t.Fatal("gossip never converged")
		case <-time.After(20 * time.Millisecond):
		}
	}
}

func TestMaintenanceStopIdempotent(t *testing.T) {
	mem := transport.NewMem()
	nd := NewNode(Config{Name: "x", Capacity: 1}, mem)
	if err := nd.Start(""); err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	stop := nd.StartMaintenance(MaintainConfig{GossipInterval: 5 * time.Millisecond})
	stop()
	stop() // second call must not panic or hang
}
