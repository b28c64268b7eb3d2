package main

import (
	"sync"
	"sync/atomic"
)

// bindings is the benchmark's record of every address it has bound to
// each mobile: the correctness oracle. A resolve answer is fresh when it
// is the binding in force when the resolve was issued, or one that came
// into force (or was being installed) before it returned; stale when it
// is some other address the key once had; wrong when the key never had
// it.
type bindings struct {
	mu      sync.Mutex
	history [][]string // history[m][k]: mobile m's address after k moves

	cur       []atomic.Pointer[string]
	started   []atomic.Int64 // moves begun per mobile
	completed []atomic.Int64 // moves whose new address is recorded
}

func newBindings(initial []string) *bindings {
	b := &bindings{
		history:   make([][]string, len(initial)),
		cur:       make([]atomic.Pointer[string], len(initial)),
		started:   make([]atomic.Int64, len(initial)),
		completed: make([]atomic.Int64, len(initial)),
	}
	for m, a := range initial {
		a := a
		b.history[m] = []string{a}
		b.cur[m].Store(&a)
	}
	return b
}

// begin marks a move of m as started, before the node changes address.
func (b *bindings) begin(m int) { b.started[m].Add(1) }

// commit records m's new address once its move returned.
func (b *bindings) commit(m int, addr string) {
	b.mu.Lock()
	b.history[m] = append(b.history[m], addr)
	b.mu.Unlock()
	b.cur[m].Store(&addr)
	b.completed[m].Add(1)
}

// abort settles a move that failed. The node may have changed address
// before failing; that address is then a real binding and is recorded.
func (b *bindings) abort(m int, addr string) {
	if addr != *b.cur[m].Load() {
		b.commit(m, addr)
		return
	}
	b.started[m].Add(-1)
}

// answer is one resolve answer awaiting classification: the completed
// move count when it was issued and the started move count when it
// returned bound the bindings it may legitimately report.
type answer struct {
	m        int
	addr     string
	issued   int64
	returned int64
}

// fresh is the fast path: an answer equal to the current binding is
// fresh whenever it was issued. Other answers go to classify.
func (b *bindings) fresh(m int, addr string) bool { return addr == *b.cur[m].Load() }

// classify judges a deferred answer once every move has committed.
func (b *bindings) classify(a answer) (stale, wrong bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	h := b.history[a.m]
	hi := int(a.returned)
	if hi >= len(h) {
		hi = len(h) - 1
	}
	for k := int(a.issued); k <= hi; k++ {
		if h[k] == a.addr {
			return false, false
		}
	}
	for _, old := range h {
		if old == a.addr {
			return true, false
		}
	}
	return false, true
}

// maxSamples bounds how many failures of one kind a run describes; the
// failure counts carry the rest.
const maxSamples = 8

// keepSamples appends more to have, up to maxSamples in all.
func keepSamples(have []string, more ...string) []string {
	if room := maxSamples - len(have); len(more) > room {
		more = more[:max(room, 0)]
	}
	return append(have, more...)
}
