// Package ingest is the streaming counterpart of the offline §2
// analysis pipeline (internal/trace → internal/measure): a sharded,
// batched, concurrency-safe engine that consumes monitor records as
// they arrive and maintains *online* per-swarm availability state —
// incremental busy-period and seed-availability tracking with the exact
// definitions internal/measure applies offline, mergeable availability
// quantile sketches (stats.QuantileSketch), per-category bundling
// counters, and rolling seed/leecher gauges.
//
// # Architecture
//
//	producers ──Writer──▶ per-shard batch queues ──▶ shard goroutines
//	                                                   │ (own all state,
//	                                                   │  no locks)
//	readers ───Summary/Swarm──▶ request messages ──────┘
//
// Swarm state is partitioned by swarm-id hash across N shard
// goroutines, each owning its slice of the keyspace outright — the hot
// path applies batches without taking any lock. Readers never block
// writers: snapshot requests travel through the same per-shard queues
// as batches and are answered with copies, so a slow reader costs at
// most one queue slot; writers stall only on queue backpressure.
// Per-shard sketches and counters merge losslessly (see
// stats.QuantileSketch and stats.Accumulator), which is what makes the
// sharded aggregate equal to the unsharded one.
//
// # Exactness
//
// When swarm metadata (monitoring horizon) is registered before a
// swarm's events and each swarm's events arrive in time order — both
// guaranteed by the replay helpers — the online per-swarm first-month
// and whole-trace availabilities are computed with the same clipping
// arithmetic, in the same order, as trace.SwarmTrace.AvailabilityOver,
// and therefore agree bitwise with the offline analysis. CDF quantiles
// come from a fixed-resolution sketch and agree with the exact order
// statistics within stats.QuantileSketch's documented one-bin
// tolerance (±1/4096 by default).
package ingest

import (
	"time"

	"swarmavail/internal/obs"
	"swarmavail/internal/trace"
)

// Record is one monitor observation, the schema the §2 monitoring
// agents (and internal/trace's archived seed sessions) emit: a peer —
// publisher seed or leecher — transitioned online or offline in a swarm
// at a point in time.
type Record struct {
	SwarmID int `json:"swarm_id"`
	// PeerID identifies the observed peer; distinct concurrent seeds
	// union their online time, exactly as merged seed sessions do.
	PeerID uint64 `json:"peer_id"`
	// Seed marks a publisher/seed observation (false = leecher).
	Seed bool `json:"seed"`
	// Online is the transition direction: true = came online.
	Online bool `json:"online"`
	// Time is in days since the swarm's creation, the availability
	// study's clock.
	Time float64 `json:"t"`
}

// opKind discriminates the operations a shard applies.
type opKind uint8

const (
	opEvent opKind = iota
	opMeta
	opCensus
)

// Op is one unit of ingestion work: an online/offline event, a swarm
// registration (metadata + monitoring horizon), or a census
// observation. Build with EventOp, MetaOp, or CensusOp.
//
// Events — the overwhelming majority of a monitor stream — are carried
// inline; the bulky registration/census payloads live behind a pointer.
// That keeps an Op at 48 bytes instead of ~220, which matters because
// the write path moves Ops by value through per-shard batch buffers:
// batch copies are the single biggest cost on the hot path.
type Op struct {
	kind opKind
	rec  Record
	aux  *opAux // registration/census payload; nil for events
}

// opAux is the out-of-line payload of registration and census ops.
type opAux struct {
	meta    trace.SwarmMeta
	horizon float64
	census  trace.Snapshot
}

// EventOp wraps a monitor record.
func EventOp(rec Record) Op { return Op{kind: opEvent, rec: rec} }

// MetaOp registers a swarm's metadata and monitoring horizon (days).
// Registering before the swarm's events is what makes the online
// availability agree exactly with the offline analysis.
func MetaOp(meta trace.SwarmMeta, horizonDays float64) Op {
	return Op{kind: opMeta, aux: &opAux{meta: meta, horizon: horizonDays}}
}

// CensusOp records a single-day census observation (§2.3): absolute
// seed/leecher gauges, the cumulative download counter, and — on first
// sight of the swarm — its bundling classification.
func CensusOp(snap trace.Snapshot) Op { return Op{kind: opCensus, aux: &opAux{census: snap}} }

// EventRecord returns the monitor record carried by an event op
// (ok=false for registrations and census ops) — what can travel over
// the wire to a remote engine's /v1/ingest.
func (o Op) EventRecord() (Record, bool) {
	if o.kind != opEvent {
		return Record{}, false
	}
	return o.rec, true
}

// SwarmID returns the swarm the op targets.
func (o Op) SwarmID() int {
	switch o.kind {
	case opEvent:
		return o.rec.SwarmID
	case opMeta:
		return o.aux.meta.ID
	default:
		return o.aux.census.Meta.ID
	}
}

// OverflowPolicy selects what Submit does when a shard queue is full.
type OverflowPolicy uint8

const (
	// Block (the default) stalls the submitter until the shard drains —
	// lossless backpressure.
	Block OverflowPolicy = iota
	// Shed drops the overflowing batch immediately and counts the lost
	// ops in Metrics().Shed — bounded-latency, lossy degradation for
	// producers that must never stall (e.g. a live monitor).
	Shed
)

// String names the policy for metrics and logs.
func (p OverflowPolicy) String() string {
	if p == Shed {
		return "shed"
	}
	return "block"
}

// Config parameterises the engine. The zero value selects sensible
// defaults via New.
type Config struct {
	// Shards is the number of state-owning worker goroutines
	// (default: GOMAXPROCS, min 1).
	Shards int
	// BatchSize is the Writer's flush threshold in ops (default 512).
	// Batches travel through the shard queues by ownership transfer —
	// no copy — so larger batches only amortise the channel hop; 512
	// ops ≈ 24 KiB per pooled buffer.
	BatchSize int
	// QueueDepth is the per-shard queue capacity in batches
	// (default 128). What happens when a queue fills is OnFull's call.
	QueueDepth int
	// OnFull is the backpressure policy for a full shard queue:
	// Block (default) or Shed.
	OnFull OverflowPolicy
	// Metrics is an optional observability registry the engine
	// registers its instruments on (ingest_* series). Nil means a
	// private registry — Engine.Metrics still works, nothing is
	// exported. Run at most one live engine per registry: a second
	// engine on the same registry merges its series into the first's.
	Metrics *obs.Registry

	// SnapshotMaxAge bounds how stale the lock-free aggregate snapshot
	// (Snapshot: Summary, Window, epoch, ETag) may get (default 100ms).
	// Under sustained writes each shard republishes its aggregate once
	// this much time has passed since the last publish; on an idle
	// engine a reader that observes an aggregate both older than this
	// and behind the shard's apply watermark nudges a refresh through
	// the queue. Either way an aggregate read is never more than
	// SnapshotMaxAge behind the applied stream. Per-swarm views
	// (SwarmSnapshot) are tighter: a shard publishes the views of the
	// swarms it touched whenever its queue drains, and at every
	// aggregate publish, so they wait for SnapshotMaxAge only while the
	// queue never empties.
	SnapshotMaxAge time.Duration

	// WindowBinDays is the width of one fine time bin in days (default
	// 1.0) for the ring-buffered windowed aggregates behind
	// /v1/availability/window. WindowFineBins fine bins are retained at
	// full resolution (default 64); older bins downsample by
	// WindowFoldFactor (default 8: eight day-bins fold into one
	// 8-day bin) into WindowCoarseBins coarse bins (default 32), beyond
	// which observations age out entirely. Every node of a cluster must
	// run the same window geometry for merged windowed answers to be
	// byte-identical to a single engine's.
	WindowBinDays    float64
	WindowFineBins   int
	WindowFoldFactor int
	WindowCoarseBins int
}

func (c Config) withDefaults(defaultShards int) Config {
	if c.Shards <= 0 {
		c.Shards = defaultShards
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 512
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 128
	}
	if c.SnapshotMaxAge <= 0 {
		c.SnapshotMaxAge = 100 * time.Millisecond
	}
	if c.WindowBinDays <= 0 {
		c.WindowBinDays = 1.0
	}
	if c.WindowFineBins <= 0 {
		c.WindowFineBins = 64
	}
	if c.WindowFoldFactor <= 0 {
		c.WindowFoldFactor = 8
	}
	if c.WindowCoarseBins <= 0 {
		c.WindowCoarseBins = 32
	}
	return c
}

// windowConfig is the engine-internal window geometry derived from
// Config; one copy lives on every shard so the apply hot path reads it
// without indirection through the engine.
type windowConfig struct {
	binDays float64
	fine    int
	fold    int
	coarse  int
}

func (c Config) windowConfig() windowConfig {
	return windowConfig{
		binDays: c.WindowBinDays,
		fine:    c.WindowFineBins,
		fold:    c.WindowFoldFactor,
		coarse:  c.WindowCoarseBins,
	}
}

// shardIndex spreads (typically sequential) swarm ids across n shards
// with a 64-bit finalizer (splitmix64's mix).
func shardIndex(swarmID, n int) int {
	x := uint64(swarmID)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(n))
}
