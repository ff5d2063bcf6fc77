package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans that share a root are one
// request; Parent links a span to the span that caused it (0 = root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Count  int    `json:"count,omitempty"` // work items covered (records, peers, …)
}

// tracer keeps finished spans in memory; they are written out once,
// when the run ends. A nil *tracer records nothing, which is how the
// untraced (end-to-end) runs call the same code paths.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open starts a span and returns its handle.
func (t *tracer) open(name string, parent int64) span {
	if t == nil {
		return span{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.epoch))}
}

// close ends sp, recording count work items.
func (t *tracer) close(sp span, count int) {
	if t == nil {
		return
	}
	sp.End = int64(time.Since(t.epoch))
	sp.Count = count
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// timed wraps fn in a span.
func (t *tracer) timed(name string, parent int64, count int, fn func()) {
	sp := t.open(name, parent)
	fn()
	t.close(sp, count)
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range t.snapshot() {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTime is the aggregate of every span of one name.
type layerTime struct {
	Spans int
	Count int   // work items summed over the spans
	Total int64 // ns, span durations
	Self  int64 // ns, durations minus the time covered by child spans
	Selfs []float64
}

// selfTimes aggregates spans by name. A span's self time is its
// duration minus the part of its interval that its children cover;
// overlapping children are counted once, and a child running past its
// parent's end is clipped to it.
func selfTimes(spans []span) map[string]*layerTime {
	children := make(map[int64][]span)
	for _, sp := range spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	out := make(map[string]*layerTime)
	for _, sp := range spans {
		self := sp.End - sp.Start - covered(sp.Start, sp.End, children[sp.ID])
		lt := out[sp.Name]
		if lt == nil {
			lt = &layerTime{}
			out[sp.Name] = lt
		}
		lt.Spans++
		lt.Count += sp.Count
		lt.Total += sp.End - sp.Start
		lt.Self += self
		lt.Selfs = append(lt.Selfs, float64(self))
	}
	return out
}

// covered returns how much of [lo, hi) the union of kids' intervals
// covers.
func covered(lo, hi int64, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		s, e := max(k.Start, lo), min(k.End, hi)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	started := false
	for _, x := range iv {
		if !started || x[0] > curE {
			if started {
				total += curE - curS
			}
			curS, curE, started = x[0], x[1], true
			continue
		}
		if x[1] > curE {
			curE = x[1]
		}
	}
	if started {
		total += curE - curS
	}
	return total
}

// perItem returns a layer's self time per work item in unit ns, or 0
// when the layer recorded nothing.
func (lt *layerTime) perItem(unit float64) float64 {
	if lt == nil || lt.Count == 0 {
		return 0
	}
	return float64(lt.Self) / float64(lt.Count) / unit
}
