package ingest

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strconv"
	"time"
)

// Snapshot is the engine-wide lock-free read view: the merged Summary
// and windowed aggregate of every shard's published snapshot, tagged
// with an epoch (total ops applied as of the snapshot) and the derived
// HTTP ETag. Snapshots are immutable and shared between readers — treat
// every reachable structure as read-only.
type Snapshot struct {
	Summary *Summary
	Window  *WindowState
	// Epoch is the sum of the shard apply watermarks the snapshot
	// reflects. Watermarks never decrease, so equal epochs ⇒ identical
	// state and the epoch is a sound cache validator.
	Epoch uint64
	// ETag is the strong HTTP validator for this snapshot:
	// "<engine-nonce>-<epoch>". The per-incarnation nonce keeps a
	// client's cached epoch from validating against a restarted engine
	// whose watermark happens to match.
	ETag string
}

// mergedSnap memoizes one merged Snapshot keyed by the per-shard
// snapshot pointers it was built from.
type mergedSnap struct {
	parts []*shardSnap
	snap  Snapshot
}

func (m *mergedSnap) matches(parts []*shardSnap) bool {
	if len(m.parts) != len(parts) {
		return false
	}
	for i, p := range parts {
		if m.parts[i] != p {
			return false
		}
	}
	return true
}

// snapNonce returns the per-engine ETag nonce.
func snapNonce() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err == nil {
		return hex.EncodeToString(b[:])
	}
	return strconv.FormatUint(uint64(time.Now().UnixNano()), 16)
}

// freshSnap returns shard s's published snapshot, first nudging a
// republish through the queue when the snapshot is both behind the
// shard's apply watermark and older than SnapshotMaxAge. Under
// sustained writes the shard republishes on its own and the nudge never
// fires; on an idle engine the queue is empty and the barrier costs two
// channel hops. Either way the returned snapshot is at most
// SnapshotMaxAge behind the applied stream.
func (e *Engine) freshSnap(s *shard) *shardSnap {
	snap := s.snap.Load()
	if s.applied.Load() == snap.epoch || time.Since(snap.built) <= e.cfg.SnapshotMaxAge {
		return snap
	}
	if !e.enter() {
		// Closed: the final publish after drain is the complete state.
		<-e.done
		return s.snap.Load()
	}
	defer e.exit()
	ack := make(chan struct{}, 1)
	s.in <- shardMsg{ack: ack}
	<-ack
	// The shard publishes before acknowledging, so this reload observes
	// everything applied before the barrier.
	return s.snap.Load()
}

// Snapshot returns the engine-wide read view without touching the shard
// queues (readers cost the writers nothing): one atomic load per shard,
// plus a merge that is memoized on the per-shard snapshot pointers —
// back-to-back calls under a quiet engine hit the cache
// (read_cache_hits_total) and return the identical Snapshot.
//
// The view is consistent per shard and at most SnapshotMaxAge stale; it
// may interleave shards mid-write. For a full barrier read use
// Summary/Window (the ?consistent=1 path).
func (e *Engine) Snapshot() Snapshot {
	parts := make([]*shardSnap, len(e.shards))
	for i, s := range e.shards {
		parts[i] = e.freshSnap(s)
	}
	if c := e.snapCache.Load(); c != nil && c.matches(parts) {
		e.metrics.readCacheHits.Add(1)
		return c.snap
	}
	sum := NewSummary()
	wc := e.cfg.windowConfig()
	win := newWindowState(&wc)
	var epoch uint64
	for _, p := range parts {
		sum.Merge(p.sum)
		_ = win.Merge(p.win) // same engine ⇒ same geometry
		epoch += p.epoch
	}
	snap := Snapshot{
		Summary: sum,
		Window:  win,
		Epoch:   epoch,
		ETag:    fmt.Sprintf("%q", e.snapNonce+"-"+strconv.FormatUint(epoch, 10)),
	}
	e.snapCache.Store(&mergedSnap{parts: parts, snap: snap})
	return snap
}

// SwarmSnapshot returns one swarm's stats from its lock-free published
// view: an index lookup and one atomic load, never a queue hop. The
// owning shard publishes the views of the swarms it touched as soon as
// its queue drains, whatever message drained it, and at the latest
// every SnapshotMaxAge under sustained writes, so the answer trails the
// applied stream by at most that. ok is false for a swarm whose first view is not yet
// published. Swarm is the barrier variant.
func (e *Engine) SwarmSnapshot(id int) (SwarmStats, bool) {
	v, ok := e.shardFor(id).index.Load(id)
	if !ok {
		return SwarmStats{}, false
	}
	st := v.(*swarmState).view.Load()
	if st == nil {
		return SwarmStats{}, false
	}
	return *st, true
}

// Window requests the windowed aggregate from every shard through the
// queues and merges them — the barrier (?consistent=1) counterpart of
// Snapshot().Window. It observes everything submitted before the call.
func (e *Engine) Window() *WindowState {
	wc := e.cfg.windowConfig()
	win := newWindowState(&wc)
	if !e.enter() {
		<-e.done
		for _, s := range e.shards {
			_ = win.Merge(s.agg.state(&s.wc))
		}
		return win
	}
	defer e.exit()
	ch := make(chan *WindowState, len(e.shards))
	for _, s := range e.shards {
		s.in <- shardMsg{window: ch}
	}
	for range e.shards {
		_ = win.Merge(<-ch)
	}
	return win
}

// Timeline returns one swarm's windowed history (per-bin observed and
// seeded time, busy-period starts, event counts) as a barrier read
// through the owning shard's queue. ok is false for unknown swarms.
func (e *Engine) Timeline(id int) (*WindowState, bool) {
	s := e.shardFor(id)
	if !e.enter() {
		<-e.done
		w := s.timelineOf(id)
		return w, w != nil
	}
	defer e.exit()
	ch := make(chan *WindowState, 1)
	s.in <- shardMsg{timelineID: id, timeline: ch}
	w := <-ch
	return w, w != nil
}

// registerSnapshotGauges exposes the read path's health:
// ingest_snapshot_age_seconds is the worst shard snapshot staleness
// (zero when every snapshot is caught up with its watermark);
// ingest_window_bins is the resident windowed-aggregate size across
// shards. Both read only atomics and published snapshots — never the
// shard queues — so scraping them is free for writers.
func (e *Engine) registerSnapshotGauges() {
	e.metrics.reg.GaugeFunc("ingest_snapshot_age_seconds", func() float64 {
		var worst float64
		now := time.Now()
		for _, s := range e.shards {
			snap := s.snap.Load()
			if s.applied.Load() == snap.epoch {
				continue
			}
			if age := now.Sub(snap.built).Seconds(); age > worst {
				worst = age
			}
		}
		return worst
	})
	e.metrics.reg.GaugeFunc("ingest_window_bins", func() float64 {
		var n int
		for _, s := range e.shards {
			snap := s.snap.Load()
			n += len(snap.win.Fine) + len(snap.win.Coarse)
		}
		return float64(n)
	})
}
