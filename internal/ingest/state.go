package ingest

import (
	"sync/atomic"

	"swarmavail/internal/measure"
	"swarmavail/internal/stats"
	"swarmavail/internal/trace"
)

// swarmState is the per-swarm online state owned by exactly one shard.
// It tracks the seed-coverage of two availability windows incrementally
// with the same clipping arithmetic trace.AvailabilityOver applies to
// archived sessions, so closed-interval availabilities agree bitwise
// with the offline analysis.
type swarmState struct {
	meta    trace.SwarmMeta
	horizon float64 // monitoring horizon in days (0 until registered)
	hasMeta bool

	seedsOnline    int
	leechersOnline int
	upSince        float64 // start of the current seeded interval (seedsOnline > 0)
	coveredFM      float64 // seeded time within [0, min(FirstMonthDays, horizon))
	coveredFull    float64 // seeded time within [0, horizon)
	busyPeriods    int     // 0→1 seed transitions
	events         uint64
	lastEvent      float64

	// Census fields (absolute gauges, not transitions).
	censusSeeds    int
	censusLeechers int
	downloads      int
	hasCensus      bool

	// win is the swarm's windowed history (see window.go). It is a pure
	// function of the swarm's own event stream, which is what makes
	// clustered windowed answers merge exactly.
	win winRing

	// view is the swarm's last published stats, read lock-free by
	// SwarmSnapshot. dirty marks changes not yet published; only the
	// owning shard goroutine touches it.
	view  atomic.Pointer[SwarmStats]
	dirty bool
}

// publishView stores the swarm's current stats as its immutable view.
func (s *swarmState) publishView() {
	v := s.stats()
	s.view.Store(&v)
	s.dirty = false
}

// windows returns the two availability windows. Before registration the
// horizon falls back to the last event time, making the availability a
// best-effort "so far" figure.
func (s *swarmState) windows() (fm, full float64) {
	full = s.horizon
	if !s.hasMeta {
		full = s.lastEvent
	}
	fm = measure.FirstMonthDays
	if full < fm {
		fm = full
	}
	return fm, full
}

// addCovered folds a closed seeded interval [lo, hi) into both window
// accumulators, clipping exactly as dist.AvailableFraction does.
func (s *swarmState) addCovered(lo, hi float64) {
	if lo < 0 {
		lo = 0
	}
	fmW, fullW := s.windows()
	if h := min(hi, fmW); h > lo {
		s.coveredFM += h - lo
	}
	if h := min(hi, fullW); h > lo {
		s.coveredFull += h - lo
	}
}

// apply processes one monitor event, mirroring window-ring changes into
// the shard aggregate agg.
func (s *swarmState) apply(rec Record, wc *windowConfig, agg *winAgg) {
	s.events++
	if rec.Time > s.lastEvent {
		// Accrue windowed observed/seeded time over the span up to this
		// event using the seed state in effect *before* its transition.
		s.win.accrue(wc, agg, s.lastEvent, rec.Time, s.seedsOnline > 0)
		s.lastEvent = rec.Time
	}
	busyStart := false
	if !rec.Seed {
		if rec.Online {
			s.leechersOnline++
		} else if s.leechersOnline > 0 {
			s.leechersOnline--
		}
	} else if rec.Online {
		if s.seedsOnline == 0 {
			s.upSince = rec.Time
			s.busyPeriods++
			busyStart = true
		}
		s.seedsOnline++
	} else if s.seedsOnline > 0 { // seedsOnline == 0: spurious offline; ignore
		s.seedsOnline--
		if s.seedsOnline == 0 {
			s.addCovered(s.upSince, rec.Time)
		}
	}
	s.win.mark(wc, agg, rec.Time, busyStart)
}

// availability returns the online first-month and whole-trace
// availability fractions. An interval still open is counted up to the
// last observed event, so mid-stream figures are monotone lower bounds
// of the final ones.
func (s *swarmState) availability() (firstMonth, full float64) {
	fmW, fullW := s.windows()
	cFM, cFull := s.coveredFM, s.coveredFull
	if s.seedsOnline > 0 {
		lo := s.upSince
		if lo < 0 {
			lo = 0
		}
		if h := min(s.lastEvent, fmW); h > lo {
			cFM += h - lo
		}
		if h := min(s.lastEvent, fullW); h > lo {
			cFull += h - lo
		}
	}
	return fraction(cFM, fmW), fraction(cFull, fullW)
}

// fraction mirrors dist.AvailableFraction's final division and clamp.
func fraction(covered, window float64) float64 {
	if window <= 0 {
		return 0
	}
	f := covered / window
	if f > 1 {
		f = 1
	}
	return f
}

// swarmRecord is the checkpoint wire form of one swarm's state: every
// swarmState field, verbatim, so a load followed by the same op stream
// produces bitwise-identical availabilities to an uninterrupted run.
type swarmRecord struct {
	ID             int             `json:"id"`
	Meta           trace.SwarmMeta `json:"meta"`
	Horizon        float64         `json:"horizon,omitempty"`
	HasMeta        bool            `json:"has_meta,omitempty"`
	SeedsOnline    int             `json:"seeds_online,omitempty"`
	LeechersOnline int             `json:"leechers_online,omitempty"`
	UpSince        float64         `json:"up_since,omitempty"`
	CoveredFM      float64         `json:"covered_fm,omitempty"`
	CoveredFull    float64         `json:"covered_full,omitempty"`
	BusyPeriods    int             `json:"busy_periods,omitempty"`
	Events         uint64          `json:"events,omitempty"`
	LastEvent      float64         `json:"last_event,omitempty"`
	CensusSeeds    int             `json:"census_seeds,omitempty"`
	CensusLeechers int             `json:"census_leechers,omitempty"`
	Downloads      int             `json:"downloads,omitempty"`
	HasCensus      bool            `json:"has_census,omitempty"`
	// WinFine/WinCoarse are the nonempty window-ring bins (checkpoint
	// v3; absent in v1/v2 frames). The ring head is not serialized — it
	// is recomputed from LastEvent on restore.
	WinFine   []winBinRecord `json:"win_fine,omitempty"`
	WinCoarse []winBinRecord `json:"win_coarse,omitempty"`
}

// record converts the state to its wire form.
func (s *swarmState) record(id int) swarmRecord {
	fine, coarse := s.win.records()
	return swarmRecord{
		ID:             id,
		Meta:           s.meta,
		Horizon:        s.horizon,
		HasMeta:        s.hasMeta,
		SeedsOnline:    s.seedsOnline,
		LeechersOnline: s.leechersOnline,
		UpSince:        s.upSince,
		CoveredFM:      s.coveredFM,
		CoveredFull:    s.coveredFull,
		BusyPeriods:    s.busyPeriods,
		Events:         s.events,
		LastEvent:      s.lastEvent,
		CensusSeeds:    s.censusSeeds,
		CensusLeechers: s.censusLeechers,
		Downloads:      s.downloads,
		HasCensus:      s.hasCensus,
		WinFine:        fine,
		WinCoarse:      coarse,
	}
}

// state converts the wire form back to live state, adding its window
// ring to agg.
func (r swarmRecord) state(wc *windowConfig, agg *winAgg) *swarmState {
	st := &swarmState{
		meta:           r.Meta,
		horizon:        r.Horizon,
		hasMeta:        r.HasMeta,
		seedsOnline:    r.SeedsOnline,
		leechersOnline: r.LeechersOnline,
		upSince:        r.UpSince,
		coveredFM:      r.CoveredFM,
		coveredFull:    r.CoveredFull,
		busyPeriods:    r.BusyPeriods,
		events:         r.Events,
		lastEvent:      r.LastEvent,
		censusSeeds:    r.CensusSeeds,
		censusLeechers: r.CensusLeechers,
		downloads:      r.Downloads,
		hasCensus:      r.HasCensus,
	}
	st.win.restore(wc, agg, r.LastEvent, r.WinFine, r.WinCoarse, r.Events > 0)
	return st
}

// categoryRecord is the checkpoint wire form of CategoryCounters; the
// live type hides its accumulators from JSON (`json:"-"`), so the wire
// form spells every field out, including the exact Welford state.
type categoryRecord struct {
	Category        trace.Category    `json:"category"`
	Swarms          int               `json:"swarms"`
	Bundles         int               `json:"bundles,omitempty"`
	Collections     int               `json:"collections,omitempty"`
	Seedless        int               `json:"seedless,omitempty"`
	SeedlessBundles int               `json:"seedless_bundles,omitempty"`
	Downloads       stats.Accumulator `json:"downloads"`
	BundleDownloads stats.Accumulator `json:"bundle_downloads"`
}

func newCategoryRecord(cat trace.Category, c CategoryCounters) categoryRecord {
	return categoryRecord{
		Category:        cat,
		Swarms:          c.Swarms,
		Bundles:         c.Bundles,
		Collections:     c.Collections,
		Seedless:        c.Seedless,
		SeedlessBundles: c.SeedlessBundles,
		Downloads:       c.Downloads,
		BundleDownloads: c.BundleDownloads,
	}
}

func (r categoryRecord) counters() CategoryCounters {
	return CategoryCounters{
		Swarms:          r.Swarms,
		Bundles:         r.Bundles,
		Collections:     r.Collections,
		Seedless:        r.Seedless,
		SeedlessBundles: r.SeedlessBundles,
		Downloads:       r.Downloads,
		BundleDownloads: r.BundleDownloads,
	}
}

// stats snapshots the swarm into its exported form.
func (s *swarmState) stats() SwarmStats {
	fm, full := s.availability()
	st := SwarmStats{
		Meta:           s.meta,
		MonitoredDays:  s.horizon,
		Registered:     s.hasMeta,
		SeedsOnline:    s.seedsOnline,
		LeechersOnline: s.leechersOnline,
		BusyPeriods:    s.busyPeriods,
		Events:         s.events,
		LastEventDay:   s.lastEvent,
		FirstMonth:     fm,
		Full:           full,
	}
	if s.hasCensus {
		st.Census = &CensusStats{
			Seeds:     s.censusSeeds,
			Leechers:  s.censusLeechers,
			Downloads: s.downloads,
		}
	}
	return st
}

// SwarmStats is the exported per-swarm snapshot served by
// /v1/swarm/{id}.
type SwarmStats struct {
	Meta           trace.SwarmMeta `json:"meta"`
	MonitoredDays  float64         `json:"monitored_days"`
	Registered     bool            `json:"registered"`
	SeedsOnline    int             `json:"seeds_online"`
	LeechersOnline int             `json:"leechers_online"`
	BusyPeriods    int             `json:"busy_periods"`
	Events         uint64          `json:"events"`
	LastEventDay   float64         `json:"last_event_day"`
	// FirstMonth and Full are the online seed-availability fractions
	// under the shared §2 definitions (measure.Availability).
	FirstMonth float64 `json:"first_month_availability"`
	Full       float64 `json:"full_availability"`
	// Census is present once a census observation arrived.
	Census *CensusStats `json:"census,omitempty"`
}

// CensusStats is the absolute-gauge census view of a swarm.
type CensusStats struct {
	Seeds     int `json:"seeds"`
	Leechers  int `json:"leechers"`
	Downloads int `json:"downloads"`
}

// CategoryCounters aggregates one content category's census: the online
// form of measure.BundlingExtent plus the seedless/demand split of
// measure.AvailabilityByBundling.
type CategoryCounters struct {
	Swarms          int `json:"swarms"`
	Bundles         int `json:"bundles"`
	Collections     int `json:"collections"`
	Seedless        int `json:"seedless"`
	SeedlessBundles int `json:"seedless_bundles"`

	Downloads       stats.Accumulator `json:"-"`
	BundleDownloads stats.Accumulator `json:"-"`
}

// merge folds other into c.
func (c *CategoryCounters) merge(other CategoryCounters) {
	c.Swarms += other.Swarms
	c.Bundles += other.Bundles
	c.Collections += other.Collections
	c.Seedless += other.Seedless
	c.SeedlessBundles += other.SeedlessBundles
	c.Downloads.Merge(&other.Downloads)
	c.BundleDownloads.Merge(&other.BundleDownloads)
}

// observe folds one census snapshot into the counters, applying the
// paper's classifiers exactly as the offline path does.
func (c *CategoryCounters) observe(snap trace.Snapshot) {
	c.Swarms++
	bundle := measure.IsBundle(snap.Meta)
	if bundle {
		c.Bundles++
	}
	if snap.Meta.Category == trace.Books && measure.IsCollection(snap.Meta) {
		c.Collections++
	}
	if snap.Seeds == 0 {
		c.Seedless++
		if bundle {
			c.SeedlessBundles++
		}
	}
	c.Downloads.Add(float64(snap.Downloads))
	if bundle {
		c.BundleDownloads.Add(float64(snap.Downloads))
	}
}

// Extent converts the counters to measure's offline summary type.
func (c CategoryCounters) Extent(cat trace.Category) measure.BundlingExtent {
	return measure.BundlingExtent{
		Category:    cat,
		Swarms:      c.Swarms,
		Bundles:     c.Bundles,
		Collections: c.Collections,
	}
}

// Compare converts the counters to measure's availability-by-bundling
// comparison.
func (c CategoryCounters) Compare(cat trace.Category) measure.AvailabilityByBundling {
	out := measure.AvailabilityByBundling{
		Category: cat,
		NAll:     c.Swarms,
		NBundles: c.Bundles,
	}
	if c.Swarms > 0 {
		out.SeedlessAll = float64(c.Seedless) / float64(c.Swarms)
		out.MeanDownloadsAll = c.Downloads.Mean()
	}
	if c.Bundles > 0 {
		out.SeedlessBundles = float64(c.SeedlessBundles) / float64(c.Bundles)
		out.MeanDownloadsBundles = c.BundleDownloads.Mean()
	}
	return out
}
