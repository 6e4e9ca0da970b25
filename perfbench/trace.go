package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark around a call into one of the repository's packages.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"` // 0: a root span
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"` // request ID shared by one op's spans
	Start  int64  `json:"start_ns"`      // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanHandle is an open span.
type spanHandle struct {
	t      *tracer
	id     int64
	parent int64
	layer  string
	name   string
	req    string
	start  time.Time
}

// begin opens a span under parent (0 for a root).
func (t *tracer) begin(layer, name string, parent int64, req string) spanHandle {
	h := spanHandle{t: t, parent: parent, layer: layer, name: name, req: req, start: time.Now()}
	if t != nil {
		t.mu.Lock()
		t.next++
		h.id = t.next
		t.mu.Unlock()
	}
	return h
}

// end closes the span and returns its duration.
func (h spanHandle) end() time.Duration {
	now := time.Now()
	if h.t != nil {
		h.t.mu.Lock()
		h.t.spans = append(h.t.spans, span{
			ID: h.id, Parent: h.parent, Layer: h.layer, Name: h.name, Req: h.req,
			Start: int64(h.start.Sub(h.t.t0)), End: int64(now.Sub(h.t.t0)),
		})
		h.t.mu.Unlock()
	}
	return now.Sub(h.start)
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval that its child spans cover. Children may run in parallel, so the
// covered part is the union of their intervals, clipped to the parent.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return selfTimes(t.spans)
}

func selfTimes(spans []span) map[string]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Layer] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi <= lo {
			continue
		}
		if lo > curHi {
			total += curHi - curLo
			curLo, curHi = lo, hi
			continue
		}
		curHi = max(curHi, hi)
	}
	return total + curHi - curLo
}

// writeFile writes the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("encoding span: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
