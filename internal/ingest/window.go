// Time-windowed availability aggregates: each swarm keeps a small ring
// of time bins recording how much of each bin the swarm was observed
// (tracked), how much of that time it was seeded (covered), how many
// busy periods started in it, and how many monitor events landed in it.
// Old fine bins downsample into coarser bins and eventually age out, so
// resident window state is bounded per swarm regardless of stream
// length.
//
// # Merge algebra
//
// Bin contents are integer fixed-point: a contribution of d days to a
// bin of width binDays is quantized once, on the swarm's home shard, to
// round(d/binDays · winUnitsPerBin) units. Everything downstream —
// folding fine bins into coarse ones, folding swarms into a shard
// WindowState, merging shard states into an engine state, merging node
// states at the cluster gateway — is integer addition keyed by absolute
// bin index, which commutes and associates exactly. Because a swarm's
// ring is a function of that swarm's own event stream alone (eviction
// included), and cluster partitioning keeps swarms whole, a merged
// clustered WindowState is identical — and renders byte-identical — to
// the WindowState of a single engine that saw the whole stream.
package ingest

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// winUnitsPerBin is the fixed-point scale: the number of integer units
// in one full bin width. 2^30 units ≈ 0.08ms resolution on a one-day
// bin — far below the float64 noise floor of the inputs.
const winUnitsPerBin = 1 << 30

// winBin is one time bin of one swarm's ring.
type winBin struct {
	covered uint64 // seeded time, in winUnitsPerBin-ths of the bin width
	tracked uint64 // observed time, same units
	busy    uint64 // busy periods (0→1 seed transitions) starting here
	events  uint64 // monitor events timestamped here
}

func (b *winBin) zero() bool {
	return b.covered|b.tracked|b.busy|b.events == 0
}

// winRing is one swarm's windowed history: fine bins at full
// resolution, coarse bins (fold× wider) behind them, nothing beyond.
// Slots are addressed modularly by absolute bin index; fineHi/coarseHi
// are the newest absolute indices currently represented, so the live
// fine window is [fineHi-len(fine)+1, fineHi].
type winRing struct {
	fine     []winBin
	coarse   []winBin
	fineHi   int64
	coarseHi int64 // in coarse-bin units (fine index / fold)
}

func (r *winRing) inited() bool { return r.fine != nil }

// binIndex maps a time in days to its absolute fine-bin index
// (negative times clamp to bin 0).
func (c *windowConfig) binIndex(t float64) int64 {
	if t <= 0 {
		return 0
	}
	return int64(t / c.binDays)
}

// quantize converts a span of d days to integer bin units; one rounding
// per contribution, on the swarm's home shard, so downstream sums are
// exact.
func (c *windowConfig) quantize(d float64) uint64 {
	if d <= 0 {
		return 0
	}
	u := math.Round(d / c.binDays * winUnitsPerBin)
	if u <= 0 {
		return 0
	}
	return uint64(u)
}

// credit returns the span [lo, hi) days' share of fine bin b as a
// ring delta: tracked time, and covered time too when the swarm was
// seeded over the span.
func (c *windowConfig) credit(lo, hi float64, b int64, seeded bool) winBin {
	u := c.quantize(min(hi, float64(b+1)*c.binDays) - max(lo, float64(b)*c.binDays))
	if seeded {
		return winBin{tracked: u, covered: u}
	}
	return winBin{tracked: u}
}

// advance moves the ring head to absolute fine bin nb, folding fine
// bins that leave the window into their coarse bins and dropping coarse
// bins that age out of retention. Every slot change is mirrored into a.
// Allocates the rings on first touch.
func (r *winRing) advance(c *windowConfig, a *winAgg, nb int64) {
	if nb < 0 {
		nb = 0
	}
	if !r.inited() {
		// One allocation backs both rings.
		bins := make([]winBin, c.fine+c.coarse)
		r.fine = bins[:c.fine:c.fine]
		r.coarse = bins[c.fine:]
		r.fineHi = nb
		r.coarseHi = nb / int64(c.fold)
		return
	}
	if nb <= r.fineHi {
		return
	}
	nFine, nCoarse := int64(len(r.fine)), int64(len(r.coarse))
	// Advance the coarse ring first so evicted fine bins fold into
	// slots that are already positioned (and zeroed) for their index.
	// Slot (coarseHi+i)%nCoarse, about to be reused, holds the aged-out
	// index coarseHi+i-nCoarse.
	if nc := nb / int64(c.fold); nc > r.coarseHi {
		steps := nc - r.coarseHi
		if steps > nCoarse {
			steps = nCoarse
		}
		for i := int64(1); i <= steps; i++ {
			if slot := &r.coarse[(r.coarseHi+i)%nCoarse]; !slot.zero() {
				a.coarse.remove(r.coarseHi+i-nCoarse, slot)
				*slot = winBin{}
			}
		}
		r.coarseHi = nc
	}
	// Fold the fine bins that fall out of [nb-nFine+1, nb]. Only live
	// indices need visiting, which bounds the loop at len(fine) no
	// matter how far the head jumps.
	lo := r.fineHi - nFine + 1
	if lo < 0 {
		lo = 0
	}
	evictTo := nb - nFine
	for b := lo; b <= evictTo && b <= r.fineHi; b++ {
		slot := &r.fine[b%nFine]
		if slot.zero() {
			continue
		}
		a.fine.remove(b, slot)
		if cb := b / int64(c.fold); cb > r.coarseHi-nCoarse {
			land(&a.coarse, cb, &r.coarse[cb%nCoarse], *slot)
		}
		*slot = winBin{}
	}
	r.fineHi = nb
}

// land adds d to the ring slot at absolute index idx and mirrors the
// delta into the aggregate t.
func land(t *binTable, idx int64, slot *winBin, d winBin) {
	if d.zero() {
		return
	}
	p, bin := t.at(idx)
	if slot.zero() {
		t.join(p, bin, idx)
	}
	bin.Covered += d.covered
	bin.Tracked += d.tracked
	bin.BusyStarts += d.busy
	bin.Events += d.events
	slot.covered += d.covered
	slot.tracked += d.tracked
	slot.busy += d.busy
	slot.events += d.events
}

// add lands units on absolute fine bin b: in the fine window directly,
// behind it via the covering coarse bin, beyond retention nowhere. The
// head must already be advanced past b.
func (r *winRing) add(c *windowConfig, a *winAgg, b int64, bin winBin) {
	if b < 0 {
		b = 0
	}
	nFine := int64(len(r.fine))
	if b > r.fineHi-nFine { // b <= fineHi by the advance contract
		land(&a.fine, b, &r.fine[b%nFine], bin)
		return
	}
	nCoarse := int64(len(r.coarse))
	cb := b / int64(c.fold)
	if cb > r.coarseHi-nCoarse && cb <= r.coarseHi {
		land(&a.coarse, cb, &r.coarse[cb%nCoarse], bin)
	}
}

// accrue advances the swarm's observed clock from lo to hi days,
// crediting tracked time (and covered time when the swarm was seeded
// throughout — the caller passes the seed state in effect over the
// span) to every bin the span touches.
func (r *winRing) accrue(c *windowConfig, a *winAgg, lo, hi float64, seeded bool) {
	if lo < 0 {
		lo = 0
	}
	head := c.binIndex(hi)
	r.advance(c, a, head)
	if hi <= lo {
		return
	}
	b0 := c.binIndex(lo)
	// Time below the retention horizon lands nowhere; skip straight to
	// the oldest bin that can still hold it.
	if floor := head - int64(c.fine) - int64(c.coarse)*int64(c.fold); b0 < floor {
		b0 = floor
	}
	nFine := int64(len(r.fine))
	b := b0
	// Behind the fine window: through the covering coarse bin.
	for ; b <= head && b <= r.fineHi-nFine; b++ {
		r.add(c, a, b, c.credit(lo, hi, b, seeded))
	}
	// The rest lies in the fine window (head == fineHi after the
	// advance): walk its slots in step with the bins.
	for p := b % nFine; b <= head; b++ {
		land(&a.fine, b, &r.fine[p], c.credit(lo, hi, b, seeded))
		if p++; p == nFine {
			p = 0
		}
	}
}

// mark lands per-event counters (one event, optionally one busy-period
// start) on the bin containing t. The ring is initialized if this is
// the swarm's first touch.
func (r *winRing) mark(c *windowConfig, a *winAgg, t float64, busyStart bool) {
	b := c.binIndex(t)
	if !r.inited() || b > r.fineHi {
		r.advance(c, a, b)
	}
	bin := winBin{events: 1}
	if busyStart {
		bin.busy = 1
	}
	r.add(c, a, b, bin)
}

// fold adds the ring's live bins into the per-index aggregation maps
// (fine and coarse keyed separately; coarse keys are coarse-bin
// indices). Each nonempty bin counts this swarm once. It serves
// one-swarm timelines and is the from-scratch oracle the shard's
// delta-kept winAgg is tested against.
func (r *winRing) fold(fine, coarse map[int64]*WindowBinState) {
	if !r.inited() {
		return
	}
	nFine := int64(len(r.fine))
	for b := r.fineHi - nFine + 1; b <= r.fineHi; b++ {
		if b < 0 {
			continue
		}
		slot := &r.fine[b%nFine]
		if slot.zero() {
			continue
		}
		foldBin(fine, b, slot)
	}
	nCoarse := int64(len(r.coarse))
	for cb := r.coarseHi - nCoarse + 1; cb <= r.coarseHi; cb++ {
		if cb < 0 {
			continue
		}
		slot := &r.coarse[cb%nCoarse]
		if slot.zero() {
			continue
		}
		foldBin(coarse, cb, slot)
	}
}

func foldBin(m map[int64]*WindowBinState, idx int64, slot *winBin) {
	agg := m[idx]
	if agg == nil {
		agg = &WindowBinState{Index: idx}
		m[idx] = agg
	}
	agg.Covered += slot.covered
	agg.Tracked += slot.tracked
	agg.BusyStarts += slot.busy
	agg.Events += slot.events
	agg.Swarms++
}

// winBinRecord is the checkpoint wire form of one live ring bin.
type winBinRecord struct {
	Index   int64  `json:"i"`
	Covered uint64 `json:"c,omitempty"`
	Tracked uint64 `json:"t,omitempty"`
	Busy    uint64 `json:"b,omitempty"`
	Events  uint64 `json:"e,omitempty"`
}

// records returns the ring's nonempty bins in index order (nil when the
// ring was never touched). The head position is not serialized: it is
// always binIndex(lastEvent), which the swarm record carries already.
func (r *winRing) records() (fine, coarse []winBinRecord) {
	if !r.inited() {
		return nil, nil
	}
	nFine := int64(len(r.fine))
	for b := r.fineHi - nFine + 1; b <= r.fineHi; b++ {
		if b < 0 {
			continue
		}
		if slot := &r.fine[b%nFine]; !slot.zero() {
			fine = append(fine, winBinRecord{Index: b, Covered: slot.covered, Tracked: slot.tracked, Busy: slot.busy, Events: slot.events})
		}
	}
	nCoarse := int64(len(r.coarse))
	for cb := r.coarseHi - nCoarse + 1; cb <= r.coarseHi; cb++ {
		if cb < 0 {
			continue
		}
		if slot := &r.coarse[cb%nCoarse]; !slot.zero() {
			coarse = append(coarse, winBinRecord{Index: cb, Covered: slot.covered, Tracked: slot.tracked, Busy: slot.busy, Events: slot.events})
		}
	}
	return fine, coarse
}

// restore rebuilds the ring from checkpointed bins, mirroring them into
// a. The head comes from lastEvent, so a load under the same geometry
// reproduces the ring exactly; under a different geometry,
// out-of-window fine bins fold into coarse and out-of-retention bins
// drop — the same rules live eviction applies.
func (r *winRing) restore(c *windowConfig, a *winAgg, lastEvent float64, fine, coarse []winBinRecord, touched bool) {
	if !touched && len(fine) == 0 && len(coarse) == 0 {
		return
	}
	r.advance(c, a, c.binIndex(lastEvent))
	nCoarse := int64(len(r.coarse))
	for _, rec := range coarse {
		if rec.Index > r.coarseHi-nCoarse && rec.Index <= r.coarseHi {
			land(&a.coarse, rec.Index, &r.coarse[rec.Index%nCoarse],
				winBin{covered: rec.Covered, tracked: rec.Tracked, busy: rec.Busy, events: rec.Events})
		}
	}
	for _, rec := range fine {
		r.add(c, a, rec.Index, winBin{covered: rec.Covered, tracked: rec.Tracked, busy: rec.Busy, events: rec.Events})
	}
}

// winAgg is a shard's windowed aggregate kept by delta: for every
// absolute bin index, the sum of that index's live ring slots across
// the shard's swarms, and in Swarms the number of those slots that are
// nonzero. Every ring mutation (add, fold on advance, coarse age-out,
// restore) mirrors its integer delta here, so the aggregate always
// equals a from-scratch fold of every ring (TestWinAggMatchesRefold),
// and publishing it costs a copy of the live bins instead of a refold.
type winAgg struct {
	fine, coarse binTable
}

// state copies the aggregate out as an immutable WindowState.
func (a *winAgg) state(c *windowConfig) *WindowState {
	w := newWindowState(c)
	w.Fine = a.fine.bins()
	w.Coarse = a.coarse.bins()
	return w
}

// aggPageBits sets the page size of a binTable: 64 bins, so the live
// bins of a default 64-bin fine ring span at most two pages.
const aggPageBits = 6

// binPage is a dense run of 1<<aggPageBits aggregate bins indexed by
// absolute bin index; key is the index >> aggPageBits.
type binPage struct {
	key  int64
	live int // bins with Swarms > 0
	bins [1 << aggPageBits]WindowBinState
}

// binTable is one resolution of a winAgg. Bins live in dense pages
// keyed by page number rather than in one dense slice: swarms' ring
// heads may lie arbitrarily far apart (timestamps come off the wire),
// and a single slice would be as long as that spread. Pages are
// created on a bin's first swarm and dropped when their last bin
// empties, so resident size follows the live bins; they are put in
// order only when copied out, at most once per publish.
type binTable struct {
	pages map[int64]*binPage
	live  int // bins with Swarms > 0, across pages
	// cache holds recently used pages, direct-mapped by the key's low
	// bits, in front of the map: consecutive ops touch different swarms
	// whose heads sit on different pages, and live pages are
	// near-contiguous, so most lookups skip the map.
	cache [64]*binPage
}

// at returns bin idx and its page, creating the page on first use.
func (t *binTable) at(idx int64) (*binPage, *WindowBinState) {
	key := idx >> aggPageBits
	p := t.cache[key&63]
	if p == nil || p.key != key {
		if p = t.pages[key]; p == nil {
			if t.pages == nil {
				t.pages = make(map[int64]*binPage)
			}
			p = &binPage{key: key}
			t.pages[key] = p
		}
		t.cache[key&63] = p
	}
	return p, &p.bins[idx&(1<<aggPageBits-1)]
}

// join counts one more swarm with a nonzero slot at bin idx.
func (t *binTable) join(p *binPage, bin *WindowBinState, idx int64) {
	if bin.Swarms == 0 {
		bin.Index = idx
		p.live++
		t.live++
	}
	bin.Swarms++
}

// remove takes a whole nonzero ring slot out of bin idx (the slot is
// about to be zeroed), dropping the page once its last bin empties.
func (t *binTable) remove(idx int64, slot *winBin) {
	p, bin := t.at(idx)
	bin.Covered -= slot.covered
	bin.Tracked -= slot.tracked
	bin.BusyStarts -= slot.busy
	bin.Events -= slot.events
	if bin.Swarms--; bin.Swarms > 0 {
		return
	}
	// The last contributing slot left, so every sum is zero again.
	p.live--
	t.live--
	if p.live == 0 {
		delete(t.pages, p.key)
		t.cache[p.key&63] = nil // at just cached p there
	}
}

// bins copies the nonempty bins out in index order.
func (t *binTable) bins() []WindowBinState {
	keys := make([]int64, 0, len(t.pages))
	for k := range t.pages {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	out := make([]WindowBinState, 0, t.live)
	for _, k := range keys {
		p := t.pages[k]
		for i := range p.bins {
			if p.bins[i].Swarms > 0 {
				out = append(out, p.bins[i])
			}
		}
	}
	return out
}

// WindowBinState is one time bin of a mergeable WindowState: integer
// unit sums across the contributing swarms. Index is the absolute bin
// index (fine-bin units in Fine, coarse-bin units in Coarse); bin b
// covers [b·width, (b+1)·width) days.
type WindowBinState struct {
	Index      int64  `json:"i"`
	Covered    uint64 `json:"covered,omitempty"`
	Tracked    uint64 `json:"tracked,omitempty"`
	BusyStarts uint64 `json:"busy_starts,omitempty"`
	Events     uint64 `json:"events,omitempty"`
	Swarms     uint64 `json:"swarms,omitempty"`
}

// WindowState is the mergeable wire form of the windowed aggregates —
// what a node serves on GET /v1/window/state and the gateway's
// scatter-gather merges. Merging is integer addition keyed by bin
// index, so any merge order over any partition of the swarms
// reproduces the single-engine state exactly.
type WindowState struct {
	// BinDays, FoldFactor, FineBins and CoarseBins are the window
	// geometry; states only merge when all four agree.
	BinDays    float64          `json:"bin_days"`
	FoldFactor int              `json:"fold_factor"`
	FineBins   int              `json:"fine_bins"`
	CoarseBins int              `json:"coarse_bins"`
	Fine       []WindowBinState `json:"fine,omitempty"`
	Coarse     []WindowBinState `json:"coarse,omitempty"`
}

// newWindowState returns an empty state carrying c's geometry.
func newWindowState(c *windowConfig) *WindowState {
	return &WindowState{BinDays: c.binDays, FoldFactor: c.fold, FineBins: c.fine, CoarseBins: c.coarse}
}

func (w *WindowState) geometryEqual(o *WindowState) bool {
	return w.BinDays == o.BinDays && w.FoldFactor == o.FoldFactor &&
		w.FineBins == o.FineBins && w.CoarseBins == o.CoarseBins
}

// Merge folds other into w. States must share geometry; a foreign
// geometry is an error, not a panic, because the inputs may come off
// the wire.
func (w *WindowState) Merge(other *WindowState) error {
	if other == nil {
		return nil
	}
	if !w.geometryEqual(other) {
		return fmt.Errorf("ingest: merging window states with different geometry (%v/%d/%d/%d vs %v/%d/%d/%d)",
			w.BinDays, w.FoldFactor, w.FineBins, w.CoarseBins,
			other.BinDays, other.FoldFactor, other.FineBins, other.CoarseBins)
	}
	w.Fine = mergeBins(w.Fine, other.Fine)
	w.Coarse = mergeBins(w.Coarse, other.Coarse)
	return nil
}

func mergeBins(a, b []WindowBinState) []WindowBinState {
	if len(b) == 0 {
		return a
	}
	m := make(map[int64]*WindowBinState, len(a)+len(b))
	for _, lists := range [2][]WindowBinState{a, b} {
		for i := range lists {
			bin := lists[i]
			agg := m[bin.Index]
			if agg == nil {
				cp := bin
				m[bin.Index] = &cp
				continue
			}
			agg.Covered += bin.Covered
			agg.Tracked += bin.Tracked
			agg.BusyStarts += bin.BusyStarts
			agg.Events += bin.Events
			agg.Swarms += bin.Swarms
		}
	}
	return sortedBins(m)
}

func sortedBins(m map[int64]*WindowBinState) []WindowBinState {
	out := make([]WindowBinState, 0, len(m))
	for _, bin := range m {
		out = append(out, *bin)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// Downsample folds every fine bin at or below cutoff (an absolute
// fine-bin index) into its coarse bin — the retention operation, made
// explicit so the property tests can check it commutes with Merge.
func (w *WindowState) Downsample(cutoff int64) {
	if len(w.Fine) == 0 {
		return
	}
	keep := w.Fine[:0]
	coarse := make(map[int64]*WindowBinState, len(w.Coarse)+len(w.Fine))
	for i := range w.Coarse {
		cp := w.Coarse[i]
		coarse[cp.Index] = &cp
	}
	for _, bin := range w.Fine {
		if bin.Index > cutoff {
			keep = append(keep, bin)
			continue
		}
		cb := bin.Index / int64(w.FoldFactor)
		agg := coarse[cb]
		if agg == nil {
			agg = &WindowBinState{Index: cb}
			coarse[cb] = agg
		}
		agg.Covered += bin.Covered
		agg.Tracked += bin.Tracked
		agg.BusyStarts += bin.BusyStarts
		agg.Events += bin.Events
		agg.Swarms += bin.Swarms
	}
	w.Fine = keep
	w.Coarse = sortedBins(coarse)
}

// MaxIndex returns the newest absolute fine-bin index the state covers
// (coarse bins are converted to the upper edge of their span), and
// false when the state is empty.
func (w *WindowState) MaxIndex() (int64, bool) {
	var hi int64
	ok := false
	if n := len(w.Fine); n > 0 {
		hi, ok = w.Fine[n-1].Index, true
	}
	if n := len(w.Coarse); n > 0 {
		if c := (w.Coarse[n-1].Index+1)*int64(w.FoldFactor) - 1; !ok || c > hi {
			hi, ok = c, true
		}
	}
	return hi, ok
}
