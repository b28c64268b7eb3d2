package live

import (
	"context"
	"testing"
	"time"

	"bristle/internal/hashkey"
	"bristle/internal/metrics"
	"bristle/internal/transport"
	"bristle/internal/wire"
)

// TestUpdateChannelDropCounted fills the updates channel past capacity:
// the overflow must be dropped (the tree never blocks) but counted and
// never silent.
func TestUpdateChannelDropCounted(t *testing.T) {
	ctrs := metrics.NewCounters()
	n := NewNode(Config{Name: "sink", Counters: ctrs}, transport.NewMem())
	key := hashkey.FromName("subject")

	const capacity = 64 // the updates channel's buffer
	const overflow = 7
	for i := 0; i < capacity+overflow; i++ {
		n.handleUpdate(&wire.Message{Type: wire.TUpdate, Self: wire.Entry{Key: key, Addr: "addr-1"}})
	}
	if got := ctrs.Get("updates.dropped"); got != overflow {
		t.Fatalf("updates.dropped = %d, want %d", got, overflow)
	}
	// The buffered prefix is still delivered intact.
	for i := 0; i < capacity; i++ {
		select {
		case up := <-n.Updates():
			if up.Key != key {
				t.Fatalf("update %d carries key %v", i, up.Key)
			}
		default:
			t.Fatalf("only %d updates buffered, want %d", i, capacity)
		}
	}
	select {
	case <-n.Updates():
		t.Fatal("dropped update was delivered anyway")
	default:
	}
}

// TestRegistrationLeaseExpires drives the registry lease end to end: a
// registrant's TTL bounds its interest, Registry() stops reporting it
// after the lease lapses, the LDT fan-out sweeps it instead of pushing
// to it, and re-registering renews the lease.
func TestRegistrationLeaseExpires(t *testing.T) {
	mem := transport.NewMem()
	ctrs := metrics.NewCounters()
	target := NewNode(Config{Name: "target", Capacity: 2, Mobile: true, Counters: ctrs}, mem)
	if err := target.Start(""); err != nil {
		t.Fatal(err)
	}
	defer target.Close()

	// dead registers under a 150ms lease, then disappears.
	dead := NewNode(Config{Name: "dead", Capacity: 2, LeaseTTL: 150 * time.Millisecond}, mem)
	if err := dead.Start(""); err != nil {
		t.Fatal(err)
	}
	// keeper registers without a lease (TTL 0): interest never lapses.
	keeper := NewNode(Config{Name: "keeper", Capacity: 2}, mem)
	if err := keeper.Start(""); err != nil {
		t.Fatal(err)
	}
	defer keeper.Close()

	for _, nd := range []*Node{dead, keeper} {
		if err := nd.RegisterWithContext(context.Background(), target.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(target.Registry()); got != 2 {
		t.Fatalf("registry holds %d entries, want 2", got)
	}
	dead.Close()
	time.Sleep(200 * time.Millisecond)

	// The lapsed registrant is invisible before any sweep ran...
	reg := target.Registry()
	if len(reg) != 1 || reg[0].Key != keeper.Key() {
		t.Fatalf("registry after lapse = %v, want only keeper", reg)
	}
	// ...and the LDT fan-out sweeps it out instead of pushing to it.
	if err := target.UpdateRegistryContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := ctrs.Get("registry.expired"); got != 1 {
		t.Fatalf("registry.expired = %d, want 1", got)
	}
	if stored := target.registry.size(); stored != 1 {
		t.Fatalf("registry map holds %d entries after sweep, want 1", stored)
	}
	// The live registrant received the push the dead one missed.
	select {
	case up := <-keeper.Updates():
		if up.Key != target.Key() {
			t.Fatalf("keeper observed update for %v", up.Key)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("live registrant missed the LDT push")
	}

	// Re-registering renews a lease: a fresh 150ms registration is live
	// again until it lapses anew.
	late := NewNode(Config{Name: "late", Capacity: 2, LeaseTTL: 150 * time.Millisecond}, mem)
	if err := late.Start(""); err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	if err := late.RegisterWithContext(context.Background(), target.Addr()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	if err := late.RegisterWithContext(context.Background(), target.Addr()); err != nil { // renewal resets the clock
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // 200ms after first register, 100ms after renewal
	found := false
	for _, e := range target.Registry() {
		if e.Key == late.Key() {
			found = true
		}
	}
	if !found {
		t.Fatal("renewed registration lapsed on the original lease clock")
	}
}

// TestMaintenanceSweepsRegistry proves the background sweep alone — no
// LDT push — evicts lapsed registrations.
func TestMaintenanceSweepsRegistry(t *testing.T) {
	mem := transport.NewMem()
	ctrs := metrics.NewCounters()
	target := NewNode(Config{Name: "swept", Capacity: 2, Counters: ctrs}, mem)
	if err := target.Start(""); err != nil {
		t.Fatal(err)
	}
	defer target.Close()
	stop := target.StartMaintenance(MaintainConfig{RegistrySweepInterval: 25 * time.Millisecond})
	defer stop()

	ghost := NewNode(Config{Name: "ghost", Capacity: 2, LeaseTTL: 50 * time.Millisecond}, mem)
	if err := ghost.Start(""); err != nil {
		t.Fatal(err)
	}
	if err := ghost.RegisterWithContext(context.Background(), target.Addr()); err != nil {
		t.Fatal(err)
	}
	ghost.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if target.registry.size() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("maintenance never swept the lapsed registration")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := ctrs.Get("registry.expired"); got != 1 {
		t.Fatalf("registry.expired = %d, want 1", got)
	}
}
