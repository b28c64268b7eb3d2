package live

import (
	"math/rand"
	"sync"
	"time"
)

// MaintainConfig tunes the background maintenance of a live node.
type MaintainConfig struct {
	// GossipInterval is the anti-entropy membership exchange period.
	// Zero disables gossip.
	GossipInterval time.Duration
	// RenewInterval is the location republish period (early binding lease
	// renewal, §2.3.2). Zero derives LeaseTTL/2 when a lease is set, else
	// disables renewal.
	RenewInterval time.Duration
	// ProbeInterval is how often suspect peers (open circuit breakers) are
	// probed so they can be readmitted without waiting for live traffic to
	// half-open them. Zero disables background probing.
	ProbeInterval time.Duration
	// RefreshInterval is the early-binding refresher period: each tick
	// re-resolves the most-recently-used cached locations whose lease is
	// about to lapse, so steady-state sends keep answering from fresh
	// leases instead of blocking on reactive discovery. Zero disables it.
	RefreshInterval time.Duration
	// RefreshTopK bounds how many MRU cache entries one refresh tick may
	// re-resolve. Default 32.
	RefreshTopK int
	// RefreshWindow is how far ahead of lease expiry an entry becomes
	// eligible for refresh. Default 2×RefreshInterval.
	RefreshWindow time.Duration
	// RegistrySweepInterval is how often lapsed registrations (registrants
	// whose lease expired without a renewing re-register) are swept out of
	// R(self). Zero derives LeaseTTL/2 when a lease is set, else disables
	// the sweep; the LDT fan-out also sweeps inline, so the periodic sweep
	// only bounds how long a dead registrant occupies memory.
	RegistrySweepInterval time.Duration
	// Rand seeds gossip partner selection; nil uses a time-seeded source.
	Rand *rand.Rand
}

// StartMaintenance launches the node's periodic duties — anti-entropy
// gossip and lease renewal — and returns a stop function. Stopping is
// idempotent and waits for the loops to exit. Errors inside the loops are
// logged (when a Logger is configured) and do not stop maintenance: a
// missed gossip round or renewal retries on the next tick.
func (n *Node) StartMaintenance(cfg MaintainConfig) (stop func()) {
	if cfg.RenewInterval == 0 && n.cfg.LeaseTTL > 0 {
		cfg.RenewInterval = n.cfg.LeaseTTL / 2
	}
	if cfg.RegistrySweepInterval == 0 && n.cfg.LeaseTTL > 0 {
		cfg.RegistrySweepInterval = n.cfg.LeaseTTL / 2
	}
	rng := cfg.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}

	done := make(chan struct{})
	var wg sync.WaitGroup

	if cfg.GossipInterval > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.NewTicker(cfg.GossipInterval)
			defer t.Stop()
			for {
				select {
				case <-done:
					return
				case <-t.C:
					if _, err := n.GossipOnce(rng); err != nil {
						n.logf("maintenance gossip: %v", err)
					}
				}
			}
		}()
	}
	if cfg.RenewInterval > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.NewTicker(cfg.RenewInterval)
			defer t.Stop()
			for {
				select {
				case <-done:
					return
				case <-t.C:
					if err := n.Publish(); err != nil {
						n.logf("maintenance renew: %v", err)
					}
				}
			}
		}()
	}
	if cfg.ProbeInterval > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.NewTicker(cfg.ProbeInterval)
			defer t.Stop()
			for {
				select {
				case <-done:
					return
				case <-t.C:
					n.ProbeSuspects()
				}
			}
		}()
	}
	if cfg.RegistrySweepInterval > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.NewTicker(cfg.RegistrySweepInterval)
			defer t.Stop()
			for {
				select {
				case <-done:
					return
				case <-t.C:
					n.SweepRegistry()
				}
			}
		}()
	}
	if cfg.RefreshInterval > 0 {
		topK := cfg.RefreshTopK
		if topK <= 0 {
			topK = 32
		}
		window := cfg.RefreshWindow
		if window <= 0 {
			window = 2 * cfg.RefreshInterval
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.NewTicker(cfg.RefreshInterval)
			defer t.Stop()
			for {
				select {
				case <-done:
					return
				case <-t.C:
					n.refreshExpiring(topK, window)
				}
			}
		}()
	}

	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
		})
	}
}
