package main

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"swarmavail/internal/ingest"
)

const (
	warmupSec   = 1.0                   // unmeasured lead-in at the offered rate
	probeEvery  = 10 * time.Millisecond // canary poll cadence
	sampleEvery = 50 * time.Millisecond
)

// streamLoad is a precomputed keyed frame schedule per source.
type streamLoad struct {
	sourceID [sources]string
	frames   [sources][][]byte
	nrec     [sources][]int
	due      [sources][]int64 // frame k of source s also carries its canary record k
}

// buildStreamLoad encodes batches as keyed frames and spaces them so
// the sources together offer rate records per second, sources offset by
// half a frame interval. Frames due at or after horizon are dropped.
func buildStreamLoad(tag string, batches [sources][][]ingest.Op, rate float64, horizon int64) (*streamLoad, error) {
	sl := &streamLoad{}
	for s := 0; s < sources; s++ {
		sl.sourceID[s] = fmt.Sprintf("perfbench-%s-s%d", tag, s)
		if len(batches[s]) == 0 {
			continue
		}
		per := float64(len(batches[s][0])) / (rate / sources) * 1e9 // ns between frames
		for i, ops := range batches[s] {
			due := int64(float64(i)*per + float64(s)*per/2)
			if due >= horizon {
				break
			}
			f, err := ingest.EncodeFrame(nil, sl.sourceID[s], uint64(i+1), ops)
			if err != nil {
				return nil, err
			}
			sl.frames[s] = append(sl.frames[s], f)
			sl.nrec[s] = append(sl.nrec[s], len(ops))
			sl.due[s] = append(sl.due[s], due)
		}
	}
	return sl, nil
}

// canaryDue returns the due time of source s's canary record k, if
// issued.
func (sl *streamLoad) canaryDue(s, k int) (int64, bool) {
	if k < 0 || k >= len(sl.due[s]) {
		return 0, false
	}
	return sl.due[s][k], true
}

// queryLoad is a precomputed open-loop query schedule.
type queryLoad struct {
	paths []string
	due   []int64
}

// driveOut is what one drive collected.
type driveOut struct {
	writers   [sources]*writer // per source; nil when a source sends nothing
	queries   *opLog           // the query mix (read-mix); nil elsewhere
	qIssued   int
	probe     *canaryProbe
	samp      sampler
	cpuAt     []map[string]float64 // CPU seconds by process at each slice bound
	before    []scrape
	after     []scrape
	ck        clock
	tr        *tracer
	gauges    gaugeSampler // traced runs only
	walBefore int64        // bytes in the nodes' data dirs
	walAfter  int64
}

// source is one open-loop issuer of a drive.
type source struct {
	run     func() error        // issues every op at its due time; returns once all completed
	backlog func(now int64) int // ops due by now and not yet completed
}

// load is what a drive issues: its sources, and the due times of the
// canary records they carry (canaryDue(s, k) for source s's record k,
// false if not issued yet).
type load struct {
	sources   []source
	canaryDue func(s, k int) (int64, bool)
}

// begin snapshots the counters and data-dir sizes before the first op.
func (d *driveOut) begin(c *deployment) error {
	var err error
	d.before, err = c.scrapeAll()
	d.walBefore = dirsBytes(c.dirs)
	return err
}

// end takes the closing snapshot after the last ack. An ack can leave
// the node before its ops are applied (journaled is enough), so a
// consistent read on every node first waits for the apply counters.
func (d *driveOut) end(c *deployment) error {
	g := newHTTPGetter(1)
	defer g.close()
	for _, n := range c.nodes {
		if _, err := g.get(n.httpURL + "/v1/state?consistent=1"); err != nil {
			return err
		}
	}
	var err error
	d.after, err = c.scrapeAll()
	d.walAfter = dirsBytes(c.dirs)
	return err
}

// drive runs the sources build returns against the cluster at once,
// with the canary probe, the backlog sampler and (traced runs) the
// gauge sampler alongside, and returns once every source has finished.
// build runs after the run's clock has started, so its sources share
// it. CPU is read at the bounds of the measured window's slices;
// /metrics is scraped before the first op and after the last ack.
func drive(c *deployment, from, to int64, tr *tracer, build func(d *driveOut) load) (*driveOut, error) {
	d := &driveOut{samp: sampler{every: sampleEvery}, tr: tr}
	if err := d.begin(c); err != nil {
		return nil, err
	}
	probeGetter := newHTTPGetter(1)
	defer probeGetter.close()
	d.probe = newCanaryProbe(probeGetter, c.gw.httpURL, probeEvery, int(to/int64(probeEvery))+1, tr)
	d.ck = clock{start: time.Now()}
	ck := d.ck
	ld := build(d)

	stop := make(chan struct{})
	var bg sync.WaitGroup
	var cpuErr error
	bg.Add(1)
	go func() {
		defer bg.Done()
		for _, at := range sliceBounds(from, to) {
			ck.sleepUntil(at)
			cpu, err := c.cpuSeconds()
			if err != nil {
				cpuErr = err
				return
			}
			d.cpuAt = append(d.cpuAt, cpu)
		}
	}()
	bg.Add(1)
	go func() {
		defer bg.Done()
		d.probe.run(ck, from, to, stop, ld.canaryDue)
	}()
	if tr != nil {
		bg.Add(1)
		go d.gauges.run(c, stop, &bg)
	}
	bg.Add(1)
	go d.samp.run(stop, &bg, func() int {
		now, n := ck.now(), 0
		for _, s := range ld.sources {
			n += s.backlog(now)
		}
		return n
	})

	errs := make([]error, len(ld.sources))
	var wg sync.WaitGroup
	for i, s := range ld.sources {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = s.run()
		}()
	}
	wg.Wait()
	ck.sleepUntil(to)
	close(stop)
	bg.Wait()
	if err := errors.Join(append(errs, cpuErr)...); err != nil {
		return nil, err
	}
	return d, d.end(c)
}

// streamSources pushes sl's frames, one StreamClient per source into
// the gateway's stream port.
func (d *driveOut) streamSources(c *deployment, sl *streamLoad) []source {
	var out []source
	for s := 0; s < sources; s++ {
		if len(sl.frames[s]) == 0 {
			continue
		}
		w := newStreamWriter(c.gwBin, sl.sourceID[s], len(sl.frames[s]), d.ck, d.tr)
		d.writers[s] = w
		out = append(out, source{
			run: func() error {
				return w.stream(func() error {
					for i, f := range sl.frames[s] {
						// A failed push is counted with its records.
						if w.push(i, sl.due[s][i], f, sl.nrec[s][i]) != nil {
							break
						}
					}
					return nil
				})
			},
			backlog: func(now int64) int { return dueBy(sl.due[s], now) - int(w.acked.Load()) },
		})
	}
	return out
}

// querySource issues ql's GETs through the gateway from two workers
// sharing the schedule.
func (d *driveOut) querySource(c *deployment, ql *queryLoad) source {
	l := newOpLog(len(ql.due))
	d.queries = l
	var done atomic.Int64
	return source{
		run: func() error {
			g := newHTTPGetter(2)
			defer g.close()
			var next atomic.Int64
			var wg sync.WaitGroup
			for k := 0; k < 2; k++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						j := int(next.Add(1) - 1)
						if j >= len(ql.due) {
							return
						}
						l.due[j] = ql.due[j]
						l.size[j] = 1
						l.late[j] = d.ck.sleepUntil(ql.due[j])
						sp := d.tr.open("query."+queryKind(ql.paths[j]), 0)
						_, err := g.get(c.gw.httpURL + ql.paths[j])
						d.tr.close(sp, 1)
						if err != nil {
							l.fail[j] = true
						} else {
							l.done[j] = d.ck.now()
						}
						done.Add(1)
					}
				}()
			}
			wg.Wait()
			d.qIssued = int(done.Load())
			return nil
		},
		backlog: func(now int64) int { return dueBy(ql.due, now) - int(done.Load()) },
	}
}

// driveStream drives sl's frames, and ql's queries when ql is not nil.
func driveStream(c *deployment, sl *streamLoad, ql *queryLoad, from, to int64, tr *tracer) (*driveOut, error) {
	return drive(c, from, to, tr, func(d *driveOut) load {
		srcs := d.streamSources(c, sl)
		if ql != nil {
			srcs = append(srcs, d.querySource(c, ql))
		}
		return load{sources: srcs, canaryDue: sl.canaryDue}
	})
}

// sliceBounds cuts [from, to) into subWindows equal slices and
// returns their subWindows+1 bounds.
func sliceBounds(from, to int64) []int64 {
	b := make([]int64, subWindows+1)
	for i := range b {
		b[i] = from + (to-from)*int64(i)/subWindows
	}
	return b
}

// addOps credits each slice of the measured window with the work
// completed by the ops due in it: records carried, or queries answered.
func (r *result) addOps(l *opLog, issued int) {
	b := sliceBounds(r.from, r.to)
	for i := range r.opsWin {
		_, _, _, _, recs, lost := l.window(b[i], b[i+1], issued)
		r.opsWin[i] += recs - lost
	}
}

// dueBy counts the ascending due times at or before now.
func dueBy(due []int64, now int64) int {
	return sort.Search(len(due), func(i int) bool { return due[i] > now })
}

// queryKind names a query path's kind for spans.
func queryKind(path string) string {
	switch {
	case len(path) >= 11 && path[:11] == "/v1/summary":
		return "summary"
	case len(path) >= 20 && path[:20] == "/v1/availability/cdf":
		return "cdf"
	case len(path) >= 23 && path[:23] == "/v1/availability/window":
		return "window"
	case len(path) > 9 && path[len(path)-9:] == "/timeline":
		return "timeline"
	default:
		return "swarm"
	}
}

// collect folds a drive's logs, CPU readings and peak RSS into res.
func (d *driveOut) collect(res *result, from, to int64, c *deployment) error {
	d.foldOps(res, from, to)
	res.cpu = make(map[string]float64)
	first, last := d.cpuAt[0], d.cpuAt[len(d.cpuAt)-1]
	for k, v := range last {
		res.cpu[k] = v - first[k]
	}
	res.cpuWin = make([]float64, subWindows)
	for i := range res.cpuWin {
		for k, v := range d.cpuAt[i+1] {
			res.cpuWin[i] += v - d.cpuAt[i][k]
		}
	}
	rss, err := c.peakRSSMiB()
	if err != nil {
		return err
	}
	res.rssMB = rss
	return nil
}

// foldOps folds the writers', probe's and query mix's logs into res
// over the measured window [from, to). On the write workloads, which
// have no query mix, the canary polls are the workload's queries.
func (d *driveOut) foldOps(res *result, from, to int64) {
	res.from, res.to = from, to
	for _, w := range d.writers {
		if w == nil {
			continue
		}
		// A lost frame or batch loses every record it carried.
		issued := int(w.issued.Load())
		lat, late, _, _, recs, lost := w.log.window(from, to, issued)
		res.ack = append(res.ack, lat...)
		res.late = append(res.late, late...)
		res.attempted += recs
		res.failed += lost
		if lost > 0 {
			res.failNotes = append(res.failNotes, fmt.Sprintf("%s: %d records in unacked frames or batches", w.source, lost))
		}
		if res.opUnit != "query" {
			res.addOps(w.log, issued)
		}
	}
	res.fresh = append(res.fresh, d.probe.fresh...)
	plat, plate, patt, pfail, _, _ := d.probe.log.window(from, to, d.probe.issued)
	res.attempted += patt
	res.failed += pfail
	if pfail > 0 {
		res.failNotes = append(res.failNotes, fmt.Sprintf("%d canary polls failed (last: %v)", pfail, d.probe.lastErr))
	}
	if d.queries != nil {
		// The read workload's unit of work is a query answered through
		// the gateway: the mix's and the canary probe's alike.
		lat, late, att, failed, _, _ := d.queries.window(from, to, d.qIssued)
		res.query = append(res.query, lat...)
		res.late = append(res.late, late...)
		res.attempted += att
		res.failed += failed
		res.addOps(d.queries, d.qIssued)
		res.addOps(d.probe.log, d.probe.issued)
		if failed > 0 {
			res.failNotes = append(res.failNotes, fmt.Sprintf("%d queries failed", failed))
		}
	} else {
		res.query = append(res.query, plat...)
		res.late = append(res.late, plate...)
	}
	res.backlogMax = d.samp.max
}

// ackedFrames returns, per source, the frames the cluster acked.
func (d *driveOut) ackedFrames(sl *streamLoad) [sources][][]byte {
	var out [sources][][]byte
	for s, w := range d.writers {
		if w != nil {
			out[s] = sl.frames[s][:w.acked.Load()]
		}
	}
	return out
}
