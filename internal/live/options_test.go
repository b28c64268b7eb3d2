package live

import (
	"reflect"
	"testing"
	"time"

	"bristle/internal/metrics"
	"bristle/internal/transport"
)

func TestNewAppliesOptionsAndDefaults(t *testing.T) {
	mem := transport.NewMem()
	counters := metrics.NewCounters()
	gauges := metrics.NewGauges()
	n, err := New("opt-node", mem,
		WithCapacity(7),
		WithMobile(),
		WithLease(5*time.Second),
		WithReplication(3),
		WithRequestTimeout(2*time.Second),
		WithRetryBudget(6, 10*time.Millisecond, 500*time.Millisecond, 20*time.Second),
		WithSuspicion(5, 3*time.Second),
		WithCounters(counters),
		WithGauges(gauges),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	cfg := n.cfg
	if cfg.Capacity != 7 || !cfg.Mobile || cfg.LeaseTTL != 5*time.Second || cfg.Replication != 3 {
		t.Errorf("identity options not applied: %+v", cfg)
	}
	if cfg.RequestTimeout != 2*time.Second || cfg.RetryAttempts != 6 ||
		cfg.RetryBase != 10*time.Millisecond || cfg.RetryMax != 500*time.Millisecond ||
		cfg.RetryBudget != 20*time.Second {
		t.Errorf("retry options not applied: %+v", cfg)
	}
	if cfg.SuspicionThreshold != 5 || cfg.SuspicionCooldown != 3*time.Second {
		t.Errorf("suspicion options not applied: %+v", cfg)
	}
	if cfg.Counters != counters || cfg.Gauges != gauges {
		t.Error("metrics registries not applied")
	}
	// Unset knobs get defaults.
	if cfg.PoolIdleTimeout != 60*time.Second {
		t.Errorf("pool idle timeout default not applied: %v", cfg.PoolIdleTimeout)
	}
}

func TestNewDefaultsMatchNewNode(t *testing.T) {
	mem := transport.NewMem()
	n, err := New("defaults", mem)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	legacy := NewNode(Config{Name: "defaults"}, mem)
	defer legacy.Close()
	if !reflect.DeepEqual(n.cfg, legacy.cfg) {
		t.Errorf("New defaults diverge from NewNode:\n  New:     %+v\n  NewNode: %+v", n.cfg, legacy.cfg)
	}
}

func TestNewValidation(t *testing.T) {
	mem := transport.NewMem()
	cases := []struct {
		name string
		node string
		tr   transport.Transport
		opts []Option
	}{
		{"empty name", "", mem, nil},
		{"nil transport", "x", nil, nil},
		{"negative replication", "x", mem, []Option{WithReplication(-1)}},
		{"negative capacity", "x", mem, []Option{WithCapacity(-2)}},
		{"negative timeout", "x", mem, []Option{WithRequestTimeout(-time.Second)}},
		{"base above max", "x", mem, []Option{WithRetryBudget(3, time.Second, time.Millisecond, time.Minute)}},
		{"negative pool limits", "x", mem, []Option{func(cfg *Config) { cfg.PoolIdleTimeout = -time.Second }}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.node, tc.tr, tc.opts...); err == nil {
				t.Errorf("New(%q) accepted invalid config", tc.name)
			}
		})
	}
}
