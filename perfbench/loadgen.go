package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"swarmavail/internal/ingest"
)

// clock is the shared time base of one run: every due time, send time
// and ack time is a nanosecond offset from start.
type clock struct{ start time.Time }

func (c clock) now() int64 { return int64(time.Since(c.start)) }

// sleepUntil waits for the due offset; it returns how late the caller
// is (0 or more).
func (c clock) sleepUntil(due int64) int64 {
	if d := due - c.now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	return c.now() - due
}

// opLog records one open-loop stream of operations: when each was due,
// how late the generator issued it, and when it completed. Completion
// is written by one goroutine and read after it has ended.
type opLog struct {
	due  []int64
	late []int64
	done []int64 // 0 = never completed
	size []int   // records carried (frames, batches); 1 for queries
	fail []bool
}

func newOpLog(n int) *opLog {
	return &opLog{due: make([]int64, n), late: make([]int64, n), done: make([]int64, n), size: make([]int, n), fail: make([]bool, n)}
}

// window selects the ops due inside [from, to) and returns their
// due-to-completion latencies in ms, the generator lateness in ms, the
// count attempted and failed, and the records they carried and lost.
func (l *opLog) window(from, to int64, issued int) (lat []sample, late []float64, attempted, failed, records, lost int) {
	for i := 0; i < issued; i++ {
		if l.due[i] < from || l.due[i] >= to {
			continue
		}
		attempted++
		records += l.size[i]
		late = append(late, float64(l.late[i])/1e6)
		if l.fail[i] || l.done[i] == 0 {
			failed++
			lost += l.size[i]
			continue
		}
		lat = append(lat, sample{l.due[i], float64(l.done[i]-l.due[i]) / 1e6})
	}
	return
}

// writer is one keyed write source, open loop: a StreamClient pushing
// frames, or an HTTP writer posting JSONL batches. Op i (a frame or a
// batch) is issued at its due time, or as soon after as the source
// allows; ops are acked whole and in order, so the acked ones are
// always a prefix.
type writer struct {
	source string
	client *ingest.StreamClient // stream writers only
	log    *opLog
	issued atomic.Int64
	acked  atomic.Int64
	ck     clock
	tr     *tracer
}

func newWriter(source string, maxOps int, ck clock, tr *tracer) *writer {
	return &writer{source: source, log: newOpLog(maxOps), ck: ck, tr: tr}
}

func newStreamWriter(addr, source string, maxFrames int, ck clock, tr *tracer) *writer {
	w := newWriter(source, maxFrames, ck, tr)
	w.client = ingest.NewStreamClient(ingest.StreamClientConfig{Addr: addr, Source: source, Window: 64})
	return w
}

// stream runs issue with a watcher stamping each frame's cumulative
// ack, then closes the client, which waits for the last ack.
func (w *writer) stream(issue func() error) error {
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		for k := 1; k <= len(w.log.done); k++ {
			if w.client.WaitAcked(uint64(k)) != nil {
				return
			}
			w.log.done[k-1] = w.ck.now()
			w.acked.Store(int64(k))
		}
	}()
	err := issue()
	if cerr := w.client.Close(); err == nil {
		err = cerr
	}
	<-watched
	return err
}

// send issues op i (due at due, carrying n records) through fn, under
// a span named name.
func (w *writer) send(i int, due int64, n int, name string, fn func() error) error {
	w.log.due[i] = due
	w.log.size[i] = n
	w.log.late[i] = w.ck.sleepUntil(due)
	sp := w.tr.open(name, 0)
	err := fn()
	w.tr.close(sp, n)
	if err != nil {
		w.log.fail[i] = true
	}
	w.issued.Store(int64(i + 1))
	return err
}

// push sends frame i on the stream; the watcher stamps its ack.
func (w *writer) push(i int, due int64, frame []byte, n int) error {
	return w.send(i, due, n, "stream.push", func() error { return w.client.PushFrame(frame) })
}

// post sends batch i through fn; its success is the ack.
func (w *writer) post(i int, due int64, n int, fn func() error) error {
	if err := w.send(i, due, n, "json.post", fn); err != nil {
		return err
	}
	w.log.done[i] = w.ck.now()
	w.acked.Store(int64(i + 1))
	return nil
}

// httpGetter issues open-loop GETs over a bounded connection pool.
type httpGetter struct {
	client *http.Client
}

func newHTTPGetter(conns int) *httpGetter {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, IdleConnTimeout: time.Minute}
	return &httpGetter{client: &http.Client{Transport: tr, Timeout: 10 * time.Second}}
}

func (g *httpGetter) close() { g.client.CloseIdleConnections() }

// get fetches url and returns the body of a 200 answer.
func (g *httpGetter) get(url string) ([]byte, error) {
	resp, err := g.client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}

// canaryProbe polls GET /v1/swarm/{canary} through the gateway open
// loop, alternating between the sources' canary swarms. A canary's
// event count says how many of its records are queryable; each record
// that became visible since the previous poll yields one freshness
// sample: this poll's completion time minus the record's due time.
type canaryProbe struct {
	g       *httpGetter
	base    string
	every   int64
	log     *opLog
	fresh   []sample // keyed by the canary record's due time
	issued  int
	lastErr error // the newest failed poll's error, for the failure report
	tr      *tracer
}

func newCanaryProbe(g *httpGetter, gwURL string, every time.Duration, max int, tr *tracer) *canaryProbe {
	return &canaryProbe{g: g, base: gwURL, every: int64(every), log: newOpLog(max), tr: tr}
}

// run polls until stop closes. canaryDue(s, k) returns the due time of
// source s's canary record k (0-based), or false if it has not been
// issued.
func (p *canaryProbe) run(ck clock, from, to int64, stop <-chan struct{}, canaryDue func(s, k int) (int64, bool)) {
	var seen [sources]uint64
	var urls [sources]string
	for s := range urls {
		urls[s] = fmt.Sprintf("%s/v1/swarm/%d", p.base, canaryID+s)
	}
	for i := 0; i < len(p.log.due); i++ {
		s := i % sources
		due := int64(i) * p.every
		select {
		case <-stop:
			return
		default:
		}
		p.log.due[i] = due
		p.log.size[i] = 1
		p.log.late[i] = ck.sleepUntil(due)
		sp := p.tr.open("query.canary", 0)
		body, err := p.g.get(urls[s])
		p.tr.close(sp, 1)
		p.issued = i + 1
		now := ck.now()
		if err != nil {
			p.log.fail[i] = true
			p.lastErr = err
			continue
		}
		p.log.done[i] = now
		var st struct {
			Events uint64 `json:"events"`
		}
		if err := json.Unmarshal(body, &st); err != nil {
			p.log.fail[i] = true
			p.lastErr = err
			continue
		}
		// Every canary record that became visible since the last poll
		// yields a sample: its visibility is bounded by this answer.
		for ; seen[s] < st.Events; seen[s]++ {
			if d, ok := canaryDue(s, int(seen[s])); ok && d >= from && d < to {
				p.fresh = append(p.fresh, sample{d, float64(now-d) / 1e6})
			}
		}
	}
}

// sampler records the outstanding-work series of a run.
type sampler struct {
	every  time.Duration
	series []int
	max    int
}

func (s *sampler) run(stop <-chan struct{}, wg *sync.WaitGroup, backlog func() int) {
	defer wg.Done()
	t := time.NewTicker(s.every)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			b := backlog()
			s.series = append(s.series, b)
			if b > s.max {
				s.max = b
			}
		}
	}
}
