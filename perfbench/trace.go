package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// that call. Times are nanoseconds since the run's epoch; Parent is the
// ID of the span that caused this one (0 for a root) and Op ties every
// span of one operation together.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// selfTime is a span's duration minus the part of its interval that its
// children cover (overlapping children count once; time a child spends
// outside the parent does not count).
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := c.Start, c.End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered int64
	var curLo, curHi int64 = 0, -1 << 62
	for _, v := range ivs {
		if v.lo > curHi {
			if curHi > curLo {
				covered += curHi - curLo
			}
			curLo, curHi = v.lo, v.hi
			continue
		}
		if v.hi > curHi {
			curHi = v.hi
		}
	}
	if curHi > curLo {
		covered += curHi - curLo
	}
	return parent.dur() - time.Duration(covered)
}

// tracer hands out span buffers. Each recording goroutine owns one
// buffer, so recording takes no lock; the buffers are merged when the
// run ends. A nil *tracer records nothing.
type tracer struct {
	epoch time.Time
	bufs  []*spanBuf
}

type spanBuf struct {
	tr    *tracer
	base  uint64 // IDs are base + local counter: unique across buffers
	next  uint64
	spans []span
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

// buffer returns a new span buffer; call before the goroutines start.
func (t *tracer) buffer() *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{tr: t, base: uint64(len(t.bufs)+1) << 40}
	t.bufs = append(t.bufs, b)
	return b
}

func (b *spanBuf) now() int64 { return int64(time.Since(b.tr.epoch)) }

// record appends a finished span and returns its ID.
func (b *spanBuf) record(name string, op, parent uint64, start, end int64) uint64 {
	if b == nil {
		return 0
	}
	b.next++
	id := b.base + b.next
	b.spans = append(b.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
	return id
}

// all returns every recorded span ordered by start time.
func (t *tracer) all() []span {
	var out []span
	for _, b := range t.bufs {
		out = append(out, b.spans...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.all() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// byOp indexes the spans named name by op, for pairing the spans of one
// operation across layers.
func byOp(spans []span, name string) map[uint64]span {
	out := make(map[uint64]span)
	for _, s := range spans {
		if s.Name == name {
			out[s.Op] = s
		}
	}
	return out
}

// layerSelf pairs each op's span of a layer with the same op's probe of
// the layer below and returns the median difference in nanoseconds: the
// layer's own cost on top of what it calls.
func layerSelf(spans []span, layer, below string) float64 {
	lower := byOp(spans, below)
	var diffs []float64
	for op, s := range byOp(spans, layer) {
		if l, ok := lower[op]; ok {
			diffs = append(diffs, float64(s.dur()-l.dur()))
		}
	}
	return median(diffs)
}

// medianDur returns the median duration of the spans named name, in
// nanoseconds, and how many there were.
func medianDur(spans []span, name string) (float64, int) {
	var ds []float64
	for _, s := range spans {
		if s.Name == name {
			ds = append(ds, float64(s.dur()))
		}
	}
	return median(ds), len(ds)
}
