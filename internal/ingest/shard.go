package ingest

import (
	"sync"
	"sync/atomic"
	"time"

	"swarmavail/internal/measure"
	"swarmavail/internal/stats"
	"swarmavail/internal/trace"
)

// shardMsg is the single message type flowing through a shard's queue.
// Exactly one of the fields is set. Routing reads through the same
// queue as writes keeps them ordered after every batch submitted before
// them — and means a reader never takes a lock a writer could contend
// on.
type shardMsg struct {
	ops []Op // batch of work

	ack chan<- struct{} // flush barrier: signalled once prior msgs applied

	summary chan<- *Summary // aggregate snapshot request

	swarmID int
	swarm   chan<- *SwarmStats // per-swarm snapshot request (nil reply = unknown)

	window chan<- *WindowState // windowed-aggregate request (consistent path)

	timelineID int
	timeline   chan<- *WindowState // per-swarm window ring (nil reply = unknown)

	persist chan<- *shardSnapshot // checkpoint state capture request
}

// shardSnap is one shard's immutable published aggregate snapshot.
// Readers load it with a single atomic pointer load and never touch the
// shard queue; the shard goroutine replaces it wholesale, never mutates
// it. Per-swarm reads go through the swarms' own views instead (see
// swarmState.view).
type shardSnap struct {
	epoch uint64    // apply watermark the snapshot reflects
	built time.Time // publish time, for the staleness bound
	sum   *Summary
	win   *WindowState
}

// shard owns a partition of the swarm keyspace. Only its goroutine
// touches the maps — no locks anywhere on the apply path.
type shard struct {
	idx     int
	in      chan shardMsg
	metrics *Metrics
	pool    *batchPool
	wc      windowConfig
	maxAge  time.Duration
	swarms  map[int]*swarmState
	cats    map[trace.Category]*CategoryCounters
	agg     winAgg // every swarm ring, summed by delta (see winAgg)

	// index is the readers' lock-free id → *swarmState lookup. The
	// shard goroutine stores an entry when it creates a swarm (install
	// does so at recovery, before the goroutine starts); readers only
	// load the entry's view.
	index sync.Map

	// applied is the shard's apply watermark (ops applied since start);
	// snap is the latest published aggregate snapshot. Together they
	// give readers the freshness test: snap.epoch == applied ⇒ nothing
	// unpublished.
	applied atomic.Uint64
	snap    atomic.Pointer[shardSnap]

	// Publish bookkeeping, touched only by the shard goroutine (or
	// before it starts). dirty marks applies the aggregate snapshot has
	// not seen; pending lists the swarms whose views are unpublished,
	// each once, and pendingSince is when the first of them was dirtied.
	dirty        bool
	lastPub      time.Time
	pending      []*swarmState
	pendingSince time.Time
}

func newShard(idx, queueDepth int, m *Metrics, pool *batchPool, wc windowConfig, maxAge time.Duration) *shard {
	s := &shard{
		idx:     idx,
		in:      make(chan shardMsg, queueDepth),
		metrics: m,
		pool:    pool,
		wc:      wc,
		maxAge:  maxAge,
		swarms:  make(map[int]*swarmState),
		cats:    make(map[trace.Category]*CategoryCounters),
	}
	// Publish an empty snapshot up front so readers never observe nil.
	s.publish()
	return s
}

// publish stores the pending swarm views and replaces the aggregate
// snapshot with the current state.
func (s *shard) publish() {
	s.publishViews()
	s.snap.Store(&shardSnap{
		epoch: s.applied.Load(),
		built: time.Now(),
		sum:   s.summarize(),
		win:   s.agg.state(&s.wc),
	})
	s.dirty = false
	s.lastPub = time.Now()
}

// publishViews stores a fresh view for every pending swarm — work
// proportional to the swarms touched since the last publish, not to
// the shard's population.
func (s *shard) publishViews() {
	if len(s.pending) == 0 {
		return
	}
	for _, st := range s.pending {
		st.publishView()
	}
	clear(s.pending)
	s.pending = s.pending[:0]
	s.metrics.viewPublishLag.Observe(time.Since(s.pendingSince).Seconds())
}

// touch queues st's view for the next publish.
func (s *shard) touch(st *swarmState) {
	if st.dirty {
		return
	}
	st.dirty = true
	s.pending = append(s.pending, st)
}

// applyBatch applies one queued batch and takes ownership of its
// buffer.
func (s *shard) applyBatch(ops []Op) {
	start := time.Now()
	if len(s.pending) == 0 {
		s.pendingSince = start
	}
	for _, op := range ops {
		s.apply(op)
	}
	s.applied.Add(uint64(len(ops)))
	s.dirty = true
	s.metrics.observeBatch(s.idx, len(ops), time.Since(start))
	// The batch buffer's ownership ends here: recycle it for the next
	// Submit/Writer fill.
	s.pool.put(ops)
	// Throttled aggregate republish: under sustained writes the
	// snapshot trails the stream by at most maxAge.
	if time.Since(s.lastPub) >= s.maxAge {
		s.publish()
	}
}

// run drains the queue until the channel closes.
func (s *shard) run() {
	for msg := range s.in {
		s.handle(msg)
	}
	// Final publish: after Close the snapshot is the complete state.
	if s.dirty {
		s.publish()
	}
}

// handle serves one queued message. Whatever its kind, swarm views go
// out once it leaves the queue empty, so a per-swarm read waits for the
// messages already queued, never for the aggregate throttle.
func (s *shard) handle(msg shardMsg) {
	switch {
	case msg.ops != nil:
		s.applyBatch(msg.ops)
	case msg.ack != nil:
		// Publish before acknowledging, so Flush ⇒ snapshots are
		// fresh — in-process flush-then-read stays read-your-writes
		// even on the lock-free path.
		if s.dirty {
			s.publish()
		}
		msg.ack <- struct{}{}
	case msg.summary != nil:
		msg.summary <- s.summarize()
	case msg.swarm != nil:
		if st, ok := s.swarms[msg.swarmID]; ok {
			snap := st.stats()
			msg.swarm <- &snap
		} else {
			msg.swarm <- nil
		}
	case msg.window != nil:
		msg.window <- s.agg.state(&s.wc)
	case msg.timeline != nil:
		msg.timeline <- s.timelineOf(msg.timelineID)
	case msg.persist != nil:
		msg.persist <- s.snapshot()
	}
	if len(s.in) == 0 {
		s.publishViews()
	}
}

func (s *shard) state(id int) *swarmState {
	st, ok := s.swarms[id]
	if !ok {
		st = &swarmState{}
		s.swarms[id] = st
		s.index.Store(id, st)
	}
	s.touch(st)
	return st
}

func (s *shard) apply(op Op) {
	switch op.kind {
	case opEvent:
		s.state(op.rec.SwarmID).apply(op.rec, &s.wc, &s.agg)
	case opMeta:
		st := s.state(op.aux.meta.ID)
		st.meta = op.aux.meta
		st.horizon = op.aux.horizon
		st.hasMeta = true
	case opCensus:
		census := &op.aux.census
		st := s.state(census.Meta.ID)
		first := !st.hasCensus
		if !st.hasMeta {
			st.meta = census.Meta
		}
		st.censusSeeds = census.Seeds
		st.censusLeechers = census.Leechers
		st.downloads = census.Downloads
		st.hasCensus = true
		if first {
			cat := census.Meta.Category
			cc, ok := s.cats[cat]
			if !ok {
				cc = &CategoryCounters{}
				s.cats[cat] = cc
			}
			cc.observe(*census)
		}
	}
}

// shardSnapshot is one shard's complete state in checkpoint wire form.
// It is built by the shard goroutine (consistent by construction) and
// serialized by the checkpointer off the apply path.
type shardSnapshot struct {
	Idx    int              `json:"idx"`
	Swarms []swarmRecord    `json:"swarms"`
	Cats   []categoryRecord `json:"cats,omitempty"`
}

// snapshot captures the shard's state for a checkpoint.
func (s *shard) snapshot() *shardSnapshot {
	snap := &shardSnapshot{Idx: s.idx, Swarms: make([]swarmRecord, 0, len(s.swarms))}
	for id, st := range s.swarms {
		snap.Swarms = append(snap.Swarms, st.record(id))
	}
	for cat, cc := range s.cats {
		snap.Cats = append(snap.Cats, newCategoryRecord(cat, *cc))
	}
	return snap
}

// install merges a checkpointed shard snapshot into this shard's maps.
// Only safe before the shard goroutine starts (recovery) — swarm ids
// must already be routed to this shard by the current hash.
func (s *shard) install(snap *shardSnapshot) {
	// The installed state is unpublished; the recovery flush (or the
	// first write) publishes it to the read snapshot and swarm views.
	s.dirty = true
	if len(s.pending) == 0 {
		s.pendingSince = time.Now()
	}
	for _, r := range snap.Swarms {
		st := r.state(&s.wc, &s.agg)
		s.swarms[r.ID] = st
		s.index.Store(r.ID, st)
		s.touch(st)
	}
	for _, cr := range snap.Cats {
		cc, ok := s.cats[cr.Category]
		if !ok {
			cc = &CategoryCounters{}
			s.cats[cr.Category] = cc
		}
		cc.merge(cr.counters())
	}
}

// summarize folds the shard's swarms into a mergeable aggregate.
func (s *shard) summarize() *Summary {
	sum := NewSummary()
	sum.Swarms = len(s.swarms)
	for _, st := range s.swarms {
		sum.SeedsOnline += st.seedsOnline
		sum.LeechersOnline += st.leechersOnline
		sum.BusyPeriods += st.busyPeriods
		sum.Events += st.events
		if st.events > 0 || st.hasMeta {
			fm, full := st.availability()
			sum.FirstMonth.Add(fm)
			sum.Full.Add(full)
			if measure.IsFullyAvailable(fm) {
				sum.FullyAvailableFirstMonth++
			}
			if measure.IsMostlyUnavailable(full) {
				sum.MostlyUnavailable++
			}
			sum.StudySwarms++
		}
		if st.hasCensus {
			sum.CensusSwarms++
		}
	}
	for cat, cc := range s.cats {
		merged := sum.Categories[cat]
		merged.merge(*cc)
		sum.Categories[cat] = merged
	}
	return sum
}

// reset empties the shard (recovery discarding a partial checkpoint
// install). Only safe before the shard goroutine starts.
func (s *shard) reset() {
	clear(s.swarms)
	clear(s.cats)
	s.index.Range(func(id, _ any) bool {
		s.index.Delete(id)
		return true
	})
	s.agg = winAgg{}
	clear(s.pending)
	s.pending = s.pending[:0]
}

// timelineOf folds one swarm's ring into a WindowState of its own
// (nil when the swarm is unknown to this shard).
func (s *shard) timelineOf(id int) *WindowState {
	st, ok := s.swarms[id]
	if !ok {
		return nil
	}
	fine := make(map[int64]*WindowBinState)
	coarse := make(map[int64]*WindowBinState)
	st.win.fold(fine, coarse)
	w := newWindowState(&s.wc)
	w.Fine = sortedBins(fine)
	w.Coarse = sortedBins(coarse)
	return w
}

// Summary is the engine-wide (or per-shard, pre-merge) aggregate
// snapshot: rolling gauges, online availability sketches, headline
// counters, and per-category bundling counters.
type Summary struct {
	Swarms         int `json:"swarms"`
	StudySwarms    int `json:"study_swarms"` // swarms with events or registration
	CensusSwarms   int `json:"census_swarms"`
	SeedsOnline    int `json:"seeds_online"`
	LeechersOnline int `json:"leechers_online"`
	BusyPeriods    int `json:"busy_periods"`

	Events uint64 `json:"events"`

	// FirstMonth and Full are mergeable availability sketches over the
	// per-swarm online availabilities (Figure 1's two CDFs, live).
	FirstMonth *stats.QuantileSketch `json:"-"`
	Full       *stats.QuantileSketch `json:"-"`

	// Headline counters under the shared §2 definitions.
	FullyAvailableFirstMonth int `json:"fully_available_first_month"`
	MostlyUnavailable        int `json:"mostly_unavailable"`

	Categories map[trace.Category]CategoryCounters `json:"-"`
}

// NewSummary returns an empty summary with sketches of the standard
// geometry.
func NewSummary() *Summary {
	return &Summary{
		FirstMonth: stats.NewAvailabilitySketch(),
		Full:       stats.NewAvailabilitySketch(),
		Categories: make(map[trace.Category]CategoryCounters),
	}
}

// Merge folds other into s.
func (s *Summary) Merge(other *Summary) {
	s.Swarms += other.Swarms
	s.StudySwarms += other.StudySwarms
	s.CensusSwarms += other.CensusSwarms
	s.SeedsOnline += other.SeedsOnline
	s.LeechersOnline += other.LeechersOnline
	s.BusyPeriods += other.BusyPeriods
	s.Events += other.Events
	s.FirstMonth.Merge(other.FirstMonth)
	s.Full.Merge(other.Full)
	s.FullyAvailableFirstMonth += other.FullyAvailableFirstMonth
	s.MostlyUnavailable += other.MostlyUnavailable
	for cat, cc := range other.Categories {
		merged := s.Categories[cat]
		merged.merge(cc)
		s.Categories[cat] = merged
	}
}

// Headlines converts the counters to measure's offline headline type.
func (s *Summary) Headlines() measure.StudyHeadlines {
	h := measure.StudyHeadlines{Swarms: s.StudySwarms}
	if s.StudySwarms > 0 {
		h.FullyAvailableFirstMonth = float64(s.FullyAvailableFirstMonth) / float64(s.StudySwarms)
		h.MostlyUnavailableOverall = float64(s.MostlyUnavailable) / float64(s.StudySwarms)
	}
	return h
}
