package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"swarmavail/internal/bittorrent/tracker"
	"swarmavail/internal/cluster"
	"swarmavail/internal/ingest"
	"swarmavail/internal/obs"
	"swarmavail/internal/trace"
	"swarmavail/internal/wal"
)

// layerMetric is one per-layer metric: its unit, and the end-to-end
// metric and workload it should move.
type layerMetric struct {
	name, unit, moves string
}

// layerMetrics is every metric a traced run reports, in print order.
var layerMetrics = []layerMetric{
	{"ingest.apply_ns_per_rec", "ns", "cpu_us_per_op on stream-durable, json-ingest (and max_rps)"},
	{"ingest.allocs_per_rec", "count", "cpu_us_per_op on stream-durable"},
	{"ingest.snapshot_us", "us", "fresh_p99_ms on stream-durable; query_p99_ms on read-mix"},
	{"ingest.snapshot_age_ms", "ms", "fresh_p50_ms on stream-durable"},
	{"ingest.batch_apply_ms_p99", "ms", "ack_p99_ms on stream-durable"},
	{"ingest.queue_depth_max", "count", "ack_p99_ms on stream-durable"},
	{"ingest.deduped", "count", "fail_ratio on all (expected 0: nonzero means resends)"},
	{"wal.append_us", "us", "cpu_us_per_op on stream-durable"},
	{"wal.fsync_ms_p50", "ms", "ack_p50_ms on stream-durable"},
	{"wal.fsync_ms_p99", "ms", "ack_p99_ms on stream-durable"},
	{"wal.fsyncs_per_frame", "ratio", "ack_p50_ms, cpu_us_per_op on stream-durable"},
	{"wal.bytes_per_rec", "B", "cpu_us_per_op on stream-durable"},
	{"ingest.submitframe_us", "us", "ack_p50_ms on stream-durable"},
	{"recovery.open_s", "s", "setup_s on read-mix"},
	{"recovery.replayed_ops", "count", "setup_s on read-mix"},
	{"stream.encode_ns_per_rec", "ns", "cpu_us_per_op on stream-durable"},
	{"stream.decode_ns_per_rec", "ns", "cpu_us_per_op on stream-durable"},
	{"stream.bytes_per_rec", "B", "cpu_us_per_op on stream-durable"},
	{"stream.ack_window_max", "count", "ack_p99_ms on stream-durable"},
	{"stream.reconnects", "count", "fail_ratio (expected 0)"},
	{"gateway.relay_us_per_frame", "us", "ack_p50_ms on stream-durable"},
	{"gateway.split_frac", "ratio", "cpu_us_per_op on stream-durable, monitor-fleet"},
	{"gateway.ring_ns_per_rec", "ns", "cpu_us_per_op on stream-durable"},
	{"gateway.fanout_us_per_batch", "us", "ack_p50_ms on json-ingest"},
	{"gateway.push_failures", "count", "fail_ratio on json-ingest"},
	{"trace.jsonl_decode_ns_per_rec", "ns", "cpu_us_per_op and max_rps on json-ingest; no move on stream-durable"},
	{"read.state_merge_us", "us", "query_p50_ms on read-mix"},
	{"read.window_merge_us", "us", "query_p50_ms on read-mix"},
	{"read.render_us", "us", "query_p50_ms on read-mix"},
	{"read.cache_hit_ratio", "ratio", "query_p50_ms, cpu_us_per_op on read-mix"},
	{"read.collapsed_ratio", "ratio", "query_p99_ms on read-mix"},
	{"read.node_fetches_per_query", "ratio", "cpu_us_per_op on read-mix"},
	{"tracker.announce_us_p50", "us", "announce_p99_ms on monitor-fleet"},
	{"tracker.announce_us_p99", "us", "announce_p99_ms on monitor-fleet"},
	{"tracker.retransmits_per_announce", "ratio", "announce_p99_ms, fail_ratio on monitor-fleet"},
	{"monitor.diff_ns_per_peer", "ns", "cpu_us_per_op on monitor-fleet"},
	{"monitor.records_per_peer", "ratio", "fresh_p50_ms on monitor-fleet"},
	{"availd.cpu_share", "ratio", "cpu_us_per_op on every write workload"},
	{"availgw.cpu_share", "ratio", "cpu_us_per_op on every write workload"},
	{"http.request_ms_p99.availd", "ms", "query_p99_ms on read-mix"},
	{"http.request_ms_p99.availgw", "ms", "query_p99_ms on read-mix"},
	{"gen.late_ms_p99", "ms", "validity of every open-loop figure"},
	{"gen.backlog_max", "count", "the max_rps decision"},
	{"bench.trace_overhead_pct", "%", "validity of the traced figures"},
}

// layerInputs are the workload's recorded inputs the in-process layer
// measurements replay.
type layerInputs struct {
	batches    [][]ingest.Op // a prefix of the batches or frames the workload sent
	jsonBodies [][]byte
	readDirs   []string
	nodePushes int // gateway → node JSON pushes (json-ingest), not reads
	mc         *monCampaign
}

// gaugeSampler scrapes the daemons periodically during a traced run
// for the gauges a before/after delta cannot show.
type gaugeSampler struct {
	snapshotAge float64 // s, worst seen
	queueDepth  float64
	scrapes     int
}

func (g *gaugeSampler) run(c *deployment, stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	t := time.NewTicker(250 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		for _, p := range c.nodes {
			s, err := fetchMetrics(p.httpURL)
			if err != nil {
				continue
			}
			g.scrapes++
			g.snapshotAge = max(g.snapshotAge, s.max("ingest_snapshot_age_seconds"))
			g.queueDepth = max(g.queueDepth, s.max("ingest_shard_queue_depth"))
		}
	}
}

// medianSelf is the median self time, in unit ns, of one span name.
func medianSelf(lt map[string]*layerTime, name string, unit float64) float64 {
	if lt[name] == nil {
		return 0
	}
	return median(lt[name].Selfs) / unit
}

// traceLayers fills res.layers: in-process measurements of each
// layer's public functions on the workload's inputs, spans from the
// live run, and counter deltas from every daemon's /metrics.
func traceLayers(cfg runCfg, res *result, tr *tracer, c *deployment, d *driveOut, in layerInputs) error {
	L := make(map[string]float64)
	res.layers = L
	ops := flatten(in.batches, 100000)
	if len(ops) == 0 {
		return fmt.Errorf("no recorded inputs for the layer measurements")
	}
	tmp, err := os.MkdirTemp(cfg.workDir, "layers-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	// ingest.engine: Submit→Flush on a 1-shard engine, allocations,
	// snapshot publish after a dirty batch.
	{
		e := ingest.New(ingest.Config{Shards: 1})
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		tr.timed("ingest.submit_flush", 0, len(ops), func() {
			for i := 0; i < len(ops); i += 256 {
				if err = e.Submit(ops[i:min(i+256, len(ops))]); err != nil {
					return
				}
			}
			e.Flush()
		})
		runtime.ReadMemStats(&ms1)
		if err != nil {
			e.Close()
			return err
		}
		L["ingest.allocs_per_rec"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(len(ops))
		for i := 0; i < 200; i++ {
			b := in.batches[i%len(in.batches)]
			if err := e.Submit(b); err != nil {
				e.Close()
				return err
			}
			e.Flush()
			tr.timed("ingest.snapshot", 0, 1, func() { e.Snapshot() })
		}
		e.Close()
	}

	// stream codec, ring routing and the gateway's split decision.
	frames := make([][]byte, 0, len(in.batches))
	var frameBytes int
	ring, err := cluster.NewRing(nodeCount, 0)
	if err != nil {
		return err
	}
	split := 0
	for i, b := range in.batches {
		var f []byte
		tr.timed("stream.encode", 0, len(b), func() { f, err = ingest.EncodeFrame(nil, "perfbench-layers", uint64(i+1), b) })
		if err != nil {
			return err
		}
		frames = append(frames, f)
		frameBytes += len(f)
		tr.timed("stream.decode", 0, len(b), func() { _, _, _, err = ingest.DecodeFrame(f) })
		if err != nil {
			return err
		}
		slots := 0
		tr.timed("gateway.ring", 0, len(b), func() {
			for _, op := range b {
				slots |= 1 << ring.Node(op.SwarmID())
			}
		})
		if slots&(slots-1) != 0 {
			split++
		}
	}
	L["gateway.split_frac"] = float64(split) / float64(len(in.batches))
	L["stream.bytes_per_rec"] = float64(frameBytes) / float64(countOps(in.batches))

	// wal: Append of the recorded frames (no fsync: the CPU cost), and
	// durable SubmitFrame under the daemons' fsync-per-append policy.
	{
		log, _, err := wal.Open(filepath.Join(tmp, "wal"), wal.Options{Policy: wal.SyncNone})
		if err != nil {
			return err
		}
		for _, f := range frames {
			tr.timed("wal.append", 0, 1, func() { _, err = log.Append(f) })
			if err != nil {
				log.Close()
				return err
			}
		}
		if err := log.Close(); err != nil {
			return err
		}
		e, _, err := ingest.OpenDurable(ingest.Config{Shards: 2}, ingest.DurabilityConfig{Dir: filepath.Join(tmp, "durable")})
		if err != nil {
			return err
		}
		for _, f := range frames[:min(300, len(frames))] {
			tr.timed("ingest.submitframe", 0, 1, func() { _, err = e.SubmitFrame(f) })
			if err != nil {
				e.Close()
				return err
			}
		}
		e.Close()
	}

	// recovery: OpenDurable on (a copy of) the read-mix data dirs.
	{
		dirs := in.readDirs
		if dirs == nil {
			rd, err := buildReadData(cfg.seed, tmp)
			if err != nil {
				return err
			}
			dirs = rd.dirs
		}
		var open float64
		var replayed uint64
		for i, dir := range dirs {
			cp := filepath.Join(tmp, fmt.Sprintf("recover%d", i))
			if err := copyDir(dir, cp); err != nil {
				return err
			}
			t0 := time.Now()
			sp := tr.open("recovery.open", 0)
			e, st, err := ingest.OpenDurable(ingest.Config{Shards: 2}, ingest.DurabilityConfig{Dir: cp, Fsync: wal.SyncNone})
			tr.close(sp, int(st.ReplayedOps))
			if err != nil {
				return err
			}
			open += time.Since(t0).Seconds()
			replayed += st.ReplayedOps
			e.Close()
		}
		L["recovery.open_s"] = open
		L["recovery.replayed_ops"] = float64(replayed)
	}

	// trace: JSONL decode of the workload's bodies.
	{
		bodies := in.jsonBodies
		if bodies == nil {
			for _, b := range in.batches {
				body, err := jsonBody(withoutMeta(b))
				if err != nil {
					return err
				}
				bodies = append(bodies, body)
			}
		}
		for _, body := range bodies {
			n := 0
			sp := tr.open("trace.jsonl_decode", 0)
			sc := trace.NewScanner[ingest.Record](bytes.NewReader(body))
			for sc.Scan() {
				n++
			}
			tr.close(sp, n)
			if err := sc.Err(); err != nil {
				return err
			}
		}
	}

	if err := relayLayer(tr, frames[:min(300, len(frames))], L); err != nil {
		return err
	}
	if err := fanoutLayer(tr, c, in.batches[:min(100, len(in.batches))], L); err != nil {
		return err
	}
	if err := readLayer(tr, c); err != nil {
		return err
	}
	mc := in.mc
	if mc == nil {
		mc = buildMonCampaign(cfg.seed, 200)
	}
	if err := trackerLayer(tr, mc, L); err != nil {
		return err
	}
	diffLayer(tr, mc, L)

	lt := selfTimes(tr.snapshot())
	L["ingest.apply_ns_per_rec"] = lt["ingest.submit_flush"].perItem(1)
	L["ingest.snapshot_us"] = medianSelf(lt, "ingest.snapshot", 1e3)
	L["wal.append_us"] = medianSelf(lt, "wal.append", 1e3)
	L["ingest.submitframe_us"] = medianSelf(lt, "ingest.submitframe", 1e3)
	L["stream.encode_ns_per_rec"] = lt["stream.encode"].perItem(1)
	L["stream.decode_ns_per_rec"] = lt["stream.decode"].perItem(1)
	L["gateway.ring_ns_per_rec"] = lt["gateway.ring"].perItem(1)
	L["trace.jsonl_decode_ns_per_rec"] = lt["trace.jsonl_decode"].perItem(1)
	L["read.state_merge_us"] = medianSelf(lt, "read.state_merge", 1e3)
	L["read.window_merge_us"] = medianSelf(lt, "read.window_merge", 1e3)
	L["read.render_us"] = medianSelf(lt, "read.render", 1e3)
	if t := lt["tracker.udp_announce"]; t != nil {
		s := summarize(t.Selfs)
		L["tracker.announce_us_p50"] = s.P50 / 1e3
		L["tracker.announce_us_p99"] = s.Tail / 1e3
	}
	L["monitor.diff_ns_per_peer"] = lt["monitor.replay_diff"].perItem(1)

	// Counters from the daemons' own instruments.
	nodes := func(ss []scrape) []scrape { return c.procScrapes("availd", ss) }
	fsync := deltaHist("wal_fsync_seconds", nodes(d.before), nodes(d.after))
	L["wal.fsync_ms_p50"] = fsync.quantile(0.5) * 1e3
	L["wal.fsync_ms_p99"] = fsync.quantile(0.99) * 1e3
	var framesAcked float64 // frames or JSON batches
	for _, w := range d.writers {
		if w == nil {
			continue
		}
		framesAcked += float64(w.acked.Load())
		if w.client != nil {
			L["stream.reconnects"] += float64(w.client.Reconnects())
		}
	}
	L["wal.fsyncs_per_frame"] = fsync.count() / max(framesAcked, 1)
	applied := c.deltaSum("ingest_applied_total", "availd", d.before, d.after)
	L["wal.bytes_per_rec"] = float64(d.walAfter-d.walBefore) / max(applied, 1)
	L["ingest.batch_apply_ms_p99"] = deltaHist("ingest_batch_apply_seconds", nodes(d.before), nodes(d.after)).quantile(0.99) * 1e3
	L["ingest.deduped"] = c.deltaSum("ingest_deduped_total", "availd", d.before, d.after)
	L["ingest.snapshot_age_ms"] = d.gauges.snapshotAge * 1e3
	L["ingest.queue_depth_max"] = d.gauges.queueDepth
	L["stream.ack_window_max"] = deltaHist("ingest_stream_ack_window", d.before, d.after).maxObserved()
	L["gateway.push_failures"] = c.deltaSum("gateway_push_failures_total", "availgw", d.before, d.after)
	gwQueries := float64(d.probe.issued + d.qIssued)
	L["read.cache_hit_ratio"] = c.deltaSum("read_cache_hits_total", "", d.before, d.after) / max(gwQueries, 1)
	L["read.collapsed_ratio"] = c.deltaSum("gateway_collapsed_reads_total", "availgw", d.before, d.after) / max(gwQueries, 1)
	nodeReqs := c.deltaSum("http_requests_total", "availd", d.before, d.after) - float64(in.nodePushes) - float64(d.gauges.scrapes)
	L["read.node_fetches_per_query"] = max(nodeReqs, 0) / max(gwQueries, 1)
	var cpuAll float64
	for _, v := range res.cpu {
		cpuAll += v
	}
	L["availd.cpu_share"] = res.cpu["availd"] / max(cpuAll, 1e-9)
	L["availgw.cpu_share"] = res.cpu["availgw"] / max(cpuAll, 1e-9)
	gws := func(ss []scrape) []scrape { return c.procScrapes("availgw", ss) }
	L["http.request_ms_p99.availd"] = deltaHist("http_request_seconds", nodes(d.before), nodes(d.after)).quantile(0.99) * 1e3
	L["http.request_ms_p99.availgw"] = deltaHist("http_request_seconds", gws(d.before), gws(d.after)).quantile(0.99) * 1e3
	L["gen.late_ms_p99"] = summarize(res.late).Tail
	L["gen.backlog_max"] = float64(res.backlogMax)
	return nil
}

func flatten(batches [][]ingest.Op, limit int) []ingest.Op {
	var out []ingest.Op
	for _, b := range batches {
		if len(out) >= limit {
			break
		}
		out = append(out, b...)
	}
	return out
}

func countOps(batches [][]ingest.Op) int {
	n := 0
	for _, b := range batches {
		n += len(b)
	}
	return n
}

func withoutMeta(b []ingest.Op) []ingest.Op {
	out := make([]ingest.Op, 0, len(b))
	for _, op := range b {
		if _, ok := op.EventRecord(); ok {
			out = append(out, op)
		}
	}
	return out
}

// inProcNode is an engine behind a loopback StreamServer and a minimal
// health endpoint, the in-process stand-in for one availd.
type inProcNode struct {
	e       *ingest.Engine
	ss      *ingest.StreamServer
	ln      net.Listener
	srv     *httptest.Server
	done    chan struct{}
	binAddr string
}

func newInProcNode() (*inProcNode, error) {
	n := &inProcNode{e: ingest.New(ingest.Config{Shards: 2}), done: make(chan struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		ingest.WriteJSON(w, map[string]string{"state": "serving"})
	})
	n.srv = httptest.NewServer(mux)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		n.srv.Close()
		n.e.Close()
		return nil, err
	}
	n.ln, n.binAddr = ln, ln.Addr().String()
	n.ss = ingest.NewStreamServer(n.e, nil)
	go func() {
		defer close(n.done)
		_ = n.ss.Serve(ln)
	}()
	return n, nil
}

func (n *inProcNode) close() {
	n.ln.Close()
	n.ss.Close()
	<-n.done
	n.srv.Close()
	n.e.Close()
}

// pushAcked sends frames one at a time and stamps each ack: a closed
// loop, so each sample is one frame's round trip.
func pushAcked(tr *tracer, name, addr string, frames [][]byte) error {
	c := ingest.NewStreamClient(ingest.StreamClientConfig{Addr: addr, Source: "perfbench-" + name})
	for i, f := range frames {
		sp := tr.open(name, 0)
		if err := c.PushFrame(f); err != nil {
			return err
		}
		if err := c.WaitAcked(uint64(i + 1)); err != nil {
			return err
		}
		tr.close(sp, 1)
	}
	return c.Close()
}

// relayLayer times the same frames acked through an in-process gateway
// over two in-process nodes and acked by one node directly.
func relayLayer(tr *tracer, frames [][]byte, L map[string]float64) error {
	direct, err := newInProcNode()
	if err != nil {
		return err
	}
	defer direct.close()
	var nodes []*inProcNode
	defer func() {
		for _, n := range nodes {
			n.close()
		}
	}()
	var cfgs []cluster.NodeConfig
	for i := 0; i < nodeCount; i++ {
		n, err := newInProcNode()
		if err != nil {
			return err
		}
		nodes = append(nodes, n)
		cfgs = append(cfgs, cluster.NodeConfig{Name: fmt.Sprintf("n%d", i), URL: n.srv.URL, BinAddr: n.binAddr})
	}
	g, err := cluster.NewGateway(cluster.GatewayConfig{Nodes: cfgs, HealthEvery: time.Hour, Metrics: obs.NewRegistry(), SourceID: "perfbench-relay"})
	if err != nil {
		return err
	}
	defer g.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = g.ServeStream(ln)
	}()
	defer func() {
		ln.Close()
		<-done
	}()
	if err := pushAcked(tr, "relay.direct", direct.binAddr, frames); err != nil {
		return err
	}
	if err := pushAcked(tr, "relay.gateway", ln.Addr().String(), frames); err != nil {
		return err
	}
	lt := selfTimes(tr.snapshot())
	L["gateway.relay_us_per_frame"] = (median(lt["relay.gateway"].Selfs) - median(lt["relay.direct"].Selfs)) / 1e3
	return nil
}

// fanoutLayer posts the same JSONL batches to the live gateway and
// straight to a node, after the correctness gate has run: the
// difference is the gateway's JSON fan-out cost per batch.
func fanoutLayer(tr *tracer, c *deployment, batches [][]ingest.Op, L map[string]float64) error {
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()
	for i, b := range batches {
		body, err := jsonBody(withoutMeta(b))
		if err != nil {
			return err
		}
		for _, target := range []struct{ name, url string }{{"fanout.gateway", c.gw.httpURL}, {"fanout.direct", c.nodes[0].httpURL}} {
			sp := tr.open(target.name, 0)
			err := postBatch(client, target.url, "perfbench-"+target.name, uint64(i+1), body)
			tr.close(sp, 1)
			if err != nil {
				return err
			}
		}
	}
	lt := selfTimes(tr.snapshot())
	L["gateway.fanout_us_per_batch"] = (median(lt["fanout.gateway"].Selfs) - median(lt["fanout.direct"].Selfs)) / 1e3
	return nil
}

// readLayer decodes and merges the nodes' mergeable states as the
// gateway's scatter-gather path does, and renders the answers.
func readLayer(tr *tracer, c *deployment) error {
	g := newHTTPGetter(1)
	defer g.close()
	var states, wins [][]byte
	for _, n := range c.nodes {
		s, err := g.get(n.httpURL + "/v1/state")
		if err != nil {
			return err
		}
		w, err := g.get(n.httpURL + "/v1/window/state")
		if err != nil {
			return err
		}
		states, wins = append(states, s), append(wins, w)
	}
	qs, err := ingest.ParseQuantiles("")
	if err != nil {
		return err
	}
	for k := 0; k < 50; k++ {
		var sum *ingest.Summary
		var win *ingest.WindowState
		var err error
		tr.timed("read.state_merge", 0, 1, func() {
			for _, b := range states {
				var st ingest.SummaryState
				if err = json.Unmarshal(b, &st); err != nil {
					return
				}
				s, e := st.Summary()
				if e != nil {
					err = e
					return
				}
				if sum == nil {
					sum = s
				} else {
					sum.Merge(s)
				}
			}
		})
		if err != nil {
			return err
		}
		tr.timed("read.window_merge", 0, 1, func() {
			for _, b := range wins {
				var w ingest.WindowState
				if err = json.Unmarshal(b, &w); err != nil {
					return
				}
				if win == nil {
					win = &w
				} else if err = win.Merge(&w); err != nil {
					return
				}
			}
		})
		if err != nil {
			return err
		}
		tr.timed("read.render", 0, 1, func() {
			_ = ingest.NewWindowResponse(win, 30)
			_ = ingest.NewCDFResponse(sum, qs)
			ingest.WriteSummary(httptest.NewRecorder(), sum)
		})
	}
	return nil
}

// countingConn counts datagrams written and their distinct BEP 15
// transaction ids; the surplus is retransmissions.
type countingConn struct {
	net.Conn
	mu     *sync.Mutex
	writes *int
	txs    map[uint32]bool
}

func (c countingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	*c.writes++
	if len(p) >= 16 {
		c.txs[binary.BigEndian.Uint32(p[12:16])] = true
	}
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// trackerLayer replays the campaign's announces against an in-process
// tracker.Server over loopback UDP.
func trackerLayer(tr *tracer, mc *monCampaign, L map[string]float64) error {
	srv := tracker.NewServer()
	pc, closeUDP, err := srv.ListenUDP("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer closeUDP()
	var mu sync.Mutex
	writes := 0
	txs := make(map[uint32]bool)
	udp := &tracker.UDPClient{Timeout: 500 * time.Millisecond, MaxRetransmits: 2, Dial: func(addr string) (net.Conn, error) {
		conn, err := net.Dial("udp", addr)
		if err != nil {
			return nil, err
		}
		return countingConn{Conn: conn, mu: &mu, writes: &writes, txs: txs}, nil
	}}
	url := "udp://" + pc.LocalAddr().String()
	announces := 0
	rounds := min(mc.rounds, 100)
	for rd := 0; rd < rounds; rd++ {
		for j := range mc.metas {
			for _, ev := range mc.events[rd][j] {
				p := &mc.peers[abs(ev)-1]
				req := tracker.AnnounceRequest{TrackerURL: url, InfoHash: mc.hashes[j], PeerID: p.peerID, Port: p.port, IP: "127.0.0.1", Event: "started", NumWant: 1}
				if ev < 0 {
					req.Event = "stopped"
				}
				if !p.seed {
					req.Left = 1
				}
				sp := tr.open("tracker.udp_announce", 0)
				_, err := udp.Announce(req)
				tr.close(sp, 1)
				if err != nil {
					return err
				}
				announces++
			}
			var monID [20]byte
			copy(monID[:], "-PBMON-layer-0000000")
			sp := tr.open("tracker.udp_announce", 0)
			_, err := udp.Announce(tracker.AnnounceRequest{TrackerURL: url, InfoHash: mc.hashes[j], PeerID: monID, Port: 19999, IP: "127.0.0.2", Left: 1, NumWant: 200})
			tr.close(sp, 1)
			if err != nil {
				return err
			}
			announces++
		}
	}
	L["tracker.retransmits_per_announce"] = float64(writes-len(txs)) / float64(max(announces, 1))
	return nil
}

// diffLayer replays the campaign's ground-truth membership through
// ingest.ProbeDiff, as a monitor that sees every round would.
func diffLayer(tr *tracer, mc *monCampaign, L map[string]float64) {
	online := make([]map[uint64]bool, len(mc.metas))
	for j := range online {
		online[j] = make(map[uint64]bool)
	}
	keys := make([]uint64, len(mc.peers))
	for i, p := range mc.peers {
		keys[i] = ingest.ObservationKey(fmt.Sprintf("127.0.0.1:%d", p.port))
	}
	diffs := make([]*ingest.ProbeDiff, len(mc.metas))
	for j, m := range mc.metas {
		diffs[j] = ingest.NewProbeDiff(m.ID)
	}
	var peers, recs int
	for rd := 0; rd < mc.rounds; rd++ {
		for j := range mc.metas {
			for _, ev := range mc.events[rd][j] {
				pi := abs(ev) - 1
				if ev > 0 {
					online[j][keys[pi]] = mc.peers[pi].seed
				} else {
					delete(online[j], keys[pi])
				}
			}
			obs := make([]ingest.PeerObservation, 0, len(online[j]))
			for k, seed := range online[j] {
				obs = append(obs, ingest.PeerObservation{Key: k, Seed: seed})
			}
			sort.Slice(obs, func(a, b int) bool { return obs[a].Key < obs[b].Key })
			var out []ingest.Op
			tr.timed("monitor.replay_diff", 0, len(obs), func() { out = diffs[j].Ops(float64(rd)*mc.dayPer, obs) })
			peers += len(obs)
			recs += len(out)
		}
	}
	L["monitor.records_per_peer"] = float64(recs) / float64(max(peers, 1))
}
