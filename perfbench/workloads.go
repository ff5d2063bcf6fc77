package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"swarmavail/internal/cluster"
	"swarmavail/internal/ingest"
	"swarmavail/internal/wal"
)

// Offered load per workload, sized for a 2-vCPU host that also runs
// the three or four server processes. Frame sizes keep every 4-second
// slice of a 20-second run above 1000 acks, enough for a p99. JSON
// batches are larger: each writer connection has one batch in flight,
// so the batch rate, not the record rate, sets how much a stalled host
// can delay before the backlog feeds on itself.
const (
	streamRate     = 60000.0 // records/s, stream-durable
	streamFrameOps = 128     // records per frame: ~470 frames/s
	jsonRate       = 6000.0  // records/s, json-ingest
	jsonBatch      = 36      // records per batch: ~170 batches/s
	readQPS        = 50.0    // queries/s, read-mix
	readWriteRate  = 0.05 * streamRate
	readFrameOps   = 8       // records per frame beside the queries: ~375 frames/s
	readCkptOps    = 400000  // ops folded into the nodes' checkpoints
	readTailOps    = 200000  // ops left in the WAL tails
	readIDBase     = 0       // swarm ids of the pre-built campaign
	liveIDBase     = 1 << 24 // swarm ids written during read-mix
)

// Cluster launches per run; setup_s is their median. An empty start
// takes about 15 ms, short enough for host noise to move single
// launches widely, so the median takes many; recovering from the
// read-mix data dirs takes about 300 ms.
const (
	setupRuns     = 25
	setupRunsRead = 5
)

// launchRepeated launches the cluster n times, recording each set-up
// time, and returns the last launch running.
func launchRepeated(o clusterOpts, tag string, n int, res *result) (*deployment, error) {
	for i := 0; ; i++ {
		c, s, err := launch(o, fmt.Sprintf("%s%d", tag, i))
		if err != nil {
			return nil, err
		}
		res.setup = append(res.setup, s)
		if i == n-1 {
			return c, nil
		}
		c.remove()
	}
}

func window(cfg runCfg) (from, to int64) {
	return int64(warmupSec * 1e9), int64((warmupSec + cfg.seconds) * 1e9)
}

// studyBatches is the write campaign cut into per-source batches, with
// the canary riding source 0.
func studyBatches(seed int64, idBase int, rate float64, batch int, cfg runCfg) [sources][][]ingest.Op {
	perSource := int(rate/sources*(warmupSec+cfg.seconds)) + batch
	streams := studyStreams(seed, idBase, perSource)
	var out [sources][][]ingest.Op
	for s := range streams {
		out[s] = batchOps(s, streams[s], batch)
	}
	return out
}

// runStreamDurable: keyed binary frames from two sources into
// availgw -ingest-bin, open loop at streamRate.
func runStreamDurable(cfg runCfg, tr *tracer) (*result, error) {
	res := &result{workload: "stream-durable", seed: cfg.seed, opUnit: "rec"}
	from, to := window(cfg)
	batches := studyBatches(cfg.seed, 0, streamRate, streamFrameOps, cfg)
	sl, err := buildStreamLoad("stream", batches, streamRate, to)
	if err != nil {
		return nil, err
	}
	var layerIn [][]ingest.Op
	if tr != nil {
		layerIn = firstBatches(batches, 400)
	}
	if !cfg.ladder {
		batches = [sources][][]ingest.Op{} // the frames carry the ops from here on
	}
	c, err := launchRepeated(clusterOpts{binDir: cfg.binDir, workDir: cfg.workDir}, "stream", setupRuns, res)
	if err != nil {
		return nil, err
	}
	defer c.remove()
	d, err := driveStream(c, sl, nil, from, to, tr)
	if err != nil {
		return nil, err
	}
	if err := d.collect(res, from, to, c); err != nil {
		return nil, err
	}
	ref := newReference()
	defer ref.close()
	if err := ref.submitFrames(d.ackedFrames(sl)); err != nil {
		return nil, err
	}
	gateCluster(res, c, ref, d, ref.ops)
	if tr != nil {
		in := layerInputs{batches: layerIn}
		return res, traceLayers(cfg, res, tr, c, d, in)
	}
	if cfg.ladder {
		return res, climbStreamLadder(c, batches, res)
	}
	return res, nil
}

func dirsBytes(dirs []string) int64 {
	var n int64
	for _, d := range dirs {
		n += dirBytes(d)
	}
	return n
}

// firstBatches keeps up to n batches per source as layer inputs.
func firstBatches(b [sources][][]ingest.Op, n int) [][]ingest.Op {
	var out [][]ingest.Op
	for s := range b {
		out = append(out, b[s][:min(n, len(b[s]))]...)
	}
	return out
}

// jsonBody renders a batch as the JSONL body of POST /v1/ingest.
func jsonBody(ops []ingest.Op) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, op := range ops {
		rec, ok := op.EventRecord()
		if !ok {
			return nil, fmt.Errorf("json ingest carries event records only")
		}
		if err := enc.Encode(rec); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// driveJSON posts each source's bodies open loop at the schedule's due
// times, one writer connection per source, with the canary probe
// alongside.
func driveJSON(c *deployment, sl *streamLoad, bodies [sources][][]byte, from, to int64, tr *tracer) (*driveOut, error) {
	tp := &http.Transport{MaxConnsPerHost: sources, MaxIdleConnsPerHost: sources}
	client := &http.Client{Transport: tp, Timeout: 30 * time.Second}
	defer tp.CloseIdleConnections()
	return drive(c, from, to, tr, func(d *driveOut) load {
		var srcs []source
		for s := 0; s < sources; s++ {
			w := newWriter(sl.sourceID[s], len(bodies[s]), d.ck, tr)
			d.writers[s] = w
			srcs = append(srcs, source{
				run: func() error {
					for i, body := range bodies[s] {
						// A failed batch is counted with its records.
						if w.post(i, sl.due[s][i], sl.nrec[s][i], func() error {
							return postBatch(client, c.gw.httpURL, w.source, uint64(i+1), body)
						}) != nil {
							break
						}
					}
					return nil
				},
				backlog: func(now int64) int { return dueBy(sl.due[s], now) - int(w.acked.Load()) },
			})
		}
		return load{sources: srcs, canaryDue: sl.canaryDue}
	})
}

// runJSONIngest: the same campaign as keyed JSONL batches on
// POST /v1/ingest of availgw, one writer connection per source.
func runJSONIngest(cfg runCfg, tr *tracer) (*result, error) {
	res := &result{workload: "json-ingest", seed: cfg.seed, opUnit: "rec"}
	from, to := window(cfg)
	batches := studyBatches(cfg.seed, 0, jsonRate, jsonBatch, cfg)
	// The schedule (and the canary's due times) come from the frame
	// builder; the bodies carry the same ops as JSONL.
	sl, err := buildStreamLoad("json", batches, jsonRate, to)
	if err != nil {
		return nil, err
	}
	bodies, err := jsonBodies(batches, sl)
	if err != nil {
		return nil, err
	}
	c, err := launchRepeated(clusterOpts{binDir: cfg.binDir, workDir: cfg.workDir}, "json", setupRuns, res)
	if err != nil {
		return nil, err
	}
	defer c.remove()
	d, err := driveJSON(c, sl, bodies, from, to, tr)
	if err != nil {
		return nil, err
	}
	if err := d.collect(res, from, to, c); err != nil {
		return nil, err
	}
	ref := newReference()
	defer ref.close()
	ring, err := cluster.NewRing(nodeCount, 0)
	if err != nil {
		return nil, err
	}
	pushes := 0
	for s, w := range d.writers {
		for _, ops := range batches[s][:w.acked.Load()] {
			if err := ref.submit(ops); err != nil {
				return nil, err
			}
			slots := 0
			for _, op := range ops {
				slots |= 1 << ring.Node(op.SwarmID())
			}
			pushes += bits.OnesCount(uint(slots))
		}
	}
	gateCluster(res, c, ref, d, ref.ops)
	if tr != nil {
		in := layerInputs{batches: firstBatches(batches, 400), jsonBodies: firstBodies(bodies, 400), nodePushes: pushes}
		return res, traceLayers(cfg, res, tr, c, d, in)
	}
	if cfg.ladder {
		return res, climbJSONLadder(c, batches, res)
	}
	return res, nil
}

// jsonBodies renders every scheduled batch as a JSONL body.
func jsonBodies(batches [sources][][]ingest.Op, sl *streamLoad) ([sources][][]byte, error) {
	var bodies [sources][][]byte
	for s := range batches {
		for i := range sl.frames[s] {
			b, err := jsonBody(batches[s][i])
			if err != nil {
				return bodies, err
			}
			bodies[s] = append(bodies[s], b)
		}
	}
	return bodies, nil
}

func firstBodies(b [sources][][]byte, n int) [][]byte {
	var out [][]byte
	for s := range b {
		out = append(out, b[s][:min(n, len(b[s]))]...)
	}
	return out
}

// postBatch sends one keyed JSONL batch; the 2xx answer is its ack.
func postBatch(client *http.Client, base, source string, seq uint64, body []byte) error {
	req, err := http.NewRequest(http.MethodPost, base+"/v1/ingest", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set(ingest.HeaderSource, source)
	req.Header.Set(ingest.HeaderSeq, strconv.FormatUint(seq, 10))
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("POST /v1/ingest: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	return nil
}

// readData is the pre-built durable state the read-mix nodes boot from.
type readData struct {
	dirs []string    // per node: a checkpoint plus a WAL tail
	ops  []ingest.Op // every op in the dirs, for the reference
	ids  []int       // swarm ids present
}

// buildReadData writes each node's share of a study campaign into its
// own data dir, routed by the gateway's ring: readCkptOps ops folded
// into a checkpoint, then readTailOps more left in the WAL.
func buildReadData(seed int64, dir string) (*readData, error) {
	ring, err := cluster.NewRing(nodeCount, 0)
	if err != nil {
		return nil, err
	}
	streams := studyStreams(seed, readIDBase, (readCkptOps+readTailOps)/sources)
	all := append(append([]ingest.Op(nil), streams[0]...), streams[1]...)
	rd := &readData{ops: all}
	seen := make(map[int]bool)
	perNode := make([][]ingest.Op, nodeCount)
	ckpt := make([]int, nodeCount) // per node: ops before the checkpoint
	for i, op := range interleaveSources(streams) {
		n := ring.Node(op.SwarmID())
		perNode[n] = append(perNode[n], op)
		if i < readCkptOps {
			ckpt[n] = len(perNode[n])
		}
		if !seen[op.SwarmID()] {
			seen[op.SwarmID()] = true
			rd.ids = append(rd.ids, op.SwarmID())
		}
	}
	for n := 0; n < nodeCount; n++ {
		// Start from an empty dir: OpenDurable would recover (and then
		// extend) anything a previous build left there.
		d := filepath.Join(dir, fmt.Sprintf("readdata-node%d", n))
		if err := os.RemoveAll(d); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
		e, _, err := ingest.OpenDurable(ingest.Config{Shards: 2}, ingest.DurabilityConfig{Dir: d, Fsync: wal.SyncNone})
		if err != nil {
			return nil, err
		}
		err = submitChunks(e, perNode[n][:ckpt[n]])
		if err == nil {
			e.Flush()
			_, err = e.Checkpoint()
		}
		if err == nil {
			err = submitChunks(e, perNode[n][ckpt[n]:])
		}
		if err != nil {
			e.Close()
			return nil, err
		}
		e.Close()
		rd.dirs = append(rd.dirs, d)
	}
	return rd, nil
}

func submitChunks(e *ingest.Engine, ops []ingest.Op) error {
	for i := 0; i < len(ops); i += 512 {
		if err := e.Submit(ops[i:min(i+512, len(ops))]); err != nil {
			return err
		}
	}
	return nil
}

// interleaveSources alternates the sources' ops, keeping each one's
// order.
func interleaveSources(s [sources][]ingest.Op) []ingest.Op {
	out := make([]ingest.Op, 0, len(s[0])+len(s[1]))
	for i := 0; i < max(len(s[0]), len(s[1])); i++ {
		for k := range s {
			if i < len(s[k]) {
				out = append(out, s[k][i])
			}
		}
	}
	return out
}

// readMix is the read-mix query shares, in twentieths. They are
// assumptions, not measurements: no trace of real query traffic to the
// daemons exists. Whole-population queries (summary, cdf, windows) and
// per-swarm ones get half each, so the gateway's scatter-gather merge
// and its raw proxy to the home node weigh alike; the smallest share
// (10%) still gives every kind about 100 queries in a 20-second run.
var readMix = []struct {
	twentieths int
	path       func(id int) string
}{
	{3, func(int) string { return "/v1/summary" }},
	{3, func(int) string { return "/v1/availability/cdf" }},
	{2, func(int) string { return "/v1/availability/window?d=7" }},
	{2, func(int) string { return "/v1/availability/window?d=30" }},
	{6, func(id int) string { return "/v1/swarm/" + strconv.Itoa(id) }},
	{4, func(id int) string { return "/v1/swarm/" + strconv.Itoa(id) + "/timeline" }},
}

// readQueries builds the open-loop query mix of readMix, the per-swarm
// queries asking for Zipf-popular swarms.
func readQueries(seed int64, ids []int, qps float64, horizon int64) *queryLoad {
	r := rand.New(rand.NewSource(seed))
	n := int(qps * float64(horizon) / 1e9)
	pick := zipfIDs(r, ids, n)
	ql := &queryLoad{}
	every := 1e9 / qps
	for i := 0; i < n; i++ {
		k := r.Intn(20)
		for _, q := range readMix {
			if k < q.twentieths {
				ql.paths = append(ql.paths, q.path(pick[i]))
				break
			}
			k -= q.twentieths
		}
		ql.due = append(ql.due, int64(float64(i)*every))
	}
	return ql
}

// runReadMix: nodes recover from pre-built data dirs (set-up includes
// recovery), then serve an open-loop query mix while a light keyed
// stream keeps invalidating snapshots and caches.
func runReadMix(cfg runCfg, tr *tracer) (*result, error) {
	res := &result{workload: "read-mix", seed: cfg.seed, opUnit: "query"}
	from, to := window(cfg)
	rd, err := buildReadData(cfg.seed, cfg.workDir)
	if err != nil {
		return nil, err
	}
	batches := studyBatches(cfg.seed+1, liveIDBase, readWriteRate, readFrameOps, cfg)
	sl, err := buildStreamLoad("read", batches, readWriteRate, to)
	if err != nil {
		return nil, err
	}
	ql := readQueries(cfg.seed, rd.ids, readQPS, to)
	c, err := launchRepeated(clusterOpts{binDir: cfg.binDir, workDir: cfg.workDir, dataDirs: rd.dirs}, "read", setupRunsRead, res)
	if err != nil {
		return nil, err
	}
	defer c.remove()
	d, err := driveStream(c, sl, ql, from, to, tr)
	if err != nil {
		return nil, err
	}
	if err := d.collect(res, from, to, c); err != nil {
		return nil, err
	}
	ref := newReference()
	defer ref.close()
	if err := ref.submit(rd.ops); err != nil {
		return nil, err
	}
	pre := ref.ops
	if err := ref.submitFrames(d.ackedFrames(sl)); err != nil {
		return nil, err
	}
	gateCluster(res, c, ref, d, ref.ops-pre)
	if tr != nil {
		in := layerInputs{batches: firstBatches(batches, 400), readDirs: rd.dirs}
		return res, traceLayers(cfg, res, tr, c, d, in)
	}
	if cfg.ladder {
		return res, climbQueryLadder(cfg.seed, c, rd, batches, res)
	}
	return res, nil
}
