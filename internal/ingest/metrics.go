package ingest

import (
	"strconv"
	"time"

	"swarmavail/internal/obs"
)

// Metrics owns the engine's operational instruments, all registered on
// an obs.Registry: ingest volume, shed counts, per-shard applied
// counters, batch sizes and per-batch apply latency. Counter and
// histogram updates are single atomic operations — nothing on the
// per-record hot path takes a lock.
//
// The registry is the single source of truth: MetricsSnapshot is built
// from it in one place (snapshot), so a scrape of /metrics and a call
// to Engine.Metrics can never disagree.
type Metrics struct {
	start time.Time
	reg   *obs.Registry

	records       *obs.Counter   // ops accepted by Submit/Writer
	deduped       *obs.Counter   // keyed ops acked without re-applying (duplicates)
	shed          *obs.Counter   // ops dropped by the Shed overflow policy
	writerDropped *obs.Counter   // buffered Writer ops lost to Close (see ClosedError)
	batches       *obs.Counter   // batches applied
	applied       []*obs.Counter // ops applied, labeled shard="i"
	batchLatency  *obs.Histogram // batch apply seconds
	batchSize     *obs.Histogram // ops per batch
	batchSizeMax  *obs.Gauge     // high-water batch size
	readCacheHits *obs.Counter   // merged-snapshot reads served from cache

	// viewPublishLag is observed once per swarm-view publish: seconds
	// from the first apply that dirtied a pending view to the store
	// that made it readable.
	viewPublishLag *obs.Histogram

	// checkpointSeconds times Engine.Checkpoint end to end. Registered
	// unconditionally (zero-valued on non-durable engines) so the
	// series set is stable across configurations.
	checkpointSeconds *obs.Histogram
}

// newMetrics registers the engine's instruments on reg (a private
// registry when nil, so Engine.Metrics works without one). Sharing one
// registry between two live engines merges their series; run one
// engine per registry.
func newMetrics(reg *obs.Registry, shards int) *Metrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &Metrics{
		start:         time.Now(),
		reg:           reg,
		records:       reg.Counter("ingest_records_total"),
		deduped:       reg.Counter("ingest_deduped_total"),
		shed:          reg.Counter("ingest_shed_total"),
		writerDropped: reg.Counter("ingest_writer_dropped_total"),
		batches:       reg.Counter("ingest_batches_total"),
		batchLatency:  reg.Histogram("ingest_batch_apply_seconds", obs.LatencyBuckets),
		batchSize:     reg.Histogram("ingest_batch_size", obs.SizeBuckets),
		batchSizeMax:  reg.Gauge("ingest_batch_size_max"),
		readCacheHits: reg.Counter("read_cache_hits_total"),

		viewPublishLag: reg.Histogram("ingest_view_publish_lag_seconds", obs.LatencyBuckets),

		checkpointSeconds: reg.Histogram("checkpoint_duration_seconds", obs.LatencyBuckets),
	}
	m.applied = make([]*obs.Counter, shards)
	for i := range m.applied {
		m.applied[i] = reg.Counter("ingest_applied_total", obs.L("shard", strconv.Itoa(i)))
	}
	return m
}

// observeBatch records one batch applied by shard i.
func (m *Metrics) observeBatch(shard, n int, d time.Duration) {
	m.applied[shard].Add(uint64(n))
	m.batches.Inc()
	sec := d.Seconds()
	if sec <= 0 {
		sec = 1e-9
	}
	m.batchLatency.Observe(sec)
	m.batchSize.Observe(float64(n))
	m.batchSizeMax.SetMax(float64(n))
}

// MetricsSnapshot is a point-in-time copy of the engine's counters.
type MetricsSnapshot struct {
	UptimeSeconds    float64 `json:"uptime_seconds"`
	Records          uint64  `json:"records"`
	Applied          uint64  `json:"applied"`
	Batches          uint64  `json:"batches"`
	RecordsPerSecond float64 `json:"records_per_second"`
	// Deduped counts keyed ops acknowledged without re-applying because
	// their (source, seq) batch was already journaled.
	Deduped uint64 `json:"deduped"`
	// Shed counts ops dropped by the Shed overflow policy; always 0
	// under Block. OverflowPolicy names the active policy.
	Shed           uint64 `json:"shed"`
	OverflowPolicy string `json:"overflow_policy"`
	// ReadCacheHits counts Snapshot() reads served from the memoized
	// merged snapshot (no per-shard re-merge).
	ReadCacheHits uint64  `json:"read_cache_hits"`
	MeanBatchSize float64 `json:"mean_batch_size"`
	MaxBatchSize  float64 `json:"max_batch_size"`
	// Batch apply latency quantiles in seconds (histogram-accurate:
	// exact to within one factor-2 bucket).
	LatencyP50 float64 `json:"latency_p50_seconds"`
	LatencyP99 float64 `json:"latency_p99_seconds"`
	// ShardDepths are instantaneous queue depths in batches;
	// ShardApplied are cumulative applied ops per shard.
	ShardDepths  []int    `json:"shard_depths"`
	ShardApplied []uint64 `json:"shard_applied"`
}

// snapshot is the single place a MetricsSnapshot is assembled — every
// field is read from the registry-backed instruments here, so handlers
// cannot skip a counter by copying fields themselves.
// TestMetricsSnapshotComplete enforces (by reflection) that every
// exported field is populated.
func (m *Metrics) snapshot(depths []int, policy OverflowPolicy) MetricsSnapshot {
	up := time.Since(m.start).Seconds()
	perShard := make([]uint64, len(m.applied))
	var applied uint64
	for i, c := range m.applied {
		perShard[i] = c.Value()
		applied += perShard[i]
	}
	snap := MetricsSnapshot{
		UptimeSeconds:  up,
		Records:        m.records.Value(),
		Deduped:        m.deduped.Value(),
		Applied:        applied,
		Batches:        m.batches.Value(),
		Shed:           m.shed.Value(),
		OverflowPolicy: policy.String(),
		ReadCacheHits:  m.readCacheHits.Value(),
		MeanBatchSize:  m.batchSize.Mean(),
		MaxBatchSize:   m.batchSizeMax.Value(),
		LatencyP50:     m.batchLatency.Quantile(0.5),
		LatencyP99:     m.batchLatency.Quantile(0.99),
		ShardDepths:    depths,
		ShardApplied:   perShard,
	}
	if up > 0 {
		snap.RecordsPerSecond = float64(applied) / up
	}
	return snap
}
