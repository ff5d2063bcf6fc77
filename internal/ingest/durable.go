package ingest

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"swarmavail/internal/obs"
	"swarmavail/internal/wal"
)

// checkpointVersion versions the checkpoint file layout. Version 2
// appends one mandatory dedup frame (the per-source exactly-once
// windows, JSON) after the shard frames; version 3 adds the window-ring
// bins to each swarm record (win_fine/win_coarse, sparse). Older files
// still load: version 1 with empty dedup windows, versions 1–2 with
// empty window rings that re-seed from subsequent events.
const checkpointVersion = 3

// checkpointsKept is how many checkpoint files survive pruning: the
// newest plus one fallback in case the newest is torn by a crash
// mid-rename (shouldn't happen — rename is atomic — but disks lie).
const checkpointsKept = 2

// DurabilityConfig parameterises OpenDurable. Only Dir is required.
type DurabilityConfig struct {
	// Dir holds the WAL segments (wal-*.seg) and checkpoint files
	// (checkpoint-*.bin). Created if missing.
	Dir string
	// Fsync selects the WAL sync policy (default wal.SyncEachAppend:
	// an acked Submit survives SIGKILL).
	Fsync wal.SyncPolicy
	// SyncEvery is the background fsync cadence under wal.SyncInterval.
	SyncEvery time.Duration
	// SegmentBytes overrides the WAL segment rotation threshold.
	SegmentBytes int64
}

// RecoveryStats reports what OpenDurable found on disk.
type RecoveryStats struct {
	// CheckpointSeq is the WAL sequence the loaded checkpoint covers
	// (0 = no checkpoint, cold start).
	CheckpointSeq uint64 `json:"checkpoint_seq"`
	// CheckpointSwarms is the number of swarms restored from it.
	CheckpointSwarms int `json:"checkpoint_swarms"`
	// ReplayedFrames / ReplayedOps count the WAL tail replayed on top.
	ReplayedFrames uint64 `json:"replayed_frames"`
	ReplayedOps    uint64 `json:"replayed_ops"`
	// TruncatedBytes and DroppedSegments echo the WAL's torn-tail
	// repair (wal.OpenStats).
	TruncatedBytes  int64 `json:"truncated_bytes"`
	DroppedSegments int   `json:"dropped_segments"`
	// BadFrameSeq is non-zero when a frame's envelope was valid but its
	// payload failed to decode; the log was cut there (TruncateFrom) so
	// every future boot sees the same prefix this one replayed.
	BadFrameSeq uint64 `json:"bad_frame_seq,omitempty"`
}

// CheckpointStats reports one Engine.Checkpoint call.
type CheckpointStats struct {
	// Seq is the WAL sequence the checkpoint covers.
	Seq uint64 `json:"seq"`
	// Swarms is the number of swarms captured.
	Swarms int `json:"swarms"`
	// Bytes is the checkpoint file size.
	Bytes int64 `json:"bytes"`
	// Duration is the wall time spent, gate acquisition included.
	Duration time.Duration `json:"duration"`
	// Skipped is true when nothing was journaled since the previous
	// checkpoint and no file was written.
	Skipped bool `json:"skipped"`
}

// ErrNotDurable is returned by Checkpoint on an engine without a
// journal (one built by New rather than OpenDurable).
var ErrNotDurable = errors.New("ingest: engine has no durability layer")

// checkpointHeader is frame 0 of a checkpoint file.
type checkpointHeader struct {
	Version int    `json:"version"`
	Seq     uint64 `json:"seq"`
	Shards  int    `json:"shards"`
	Swarms  int    `json:"swarms"`
}

// OpenDurable opens (or cold-starts) a durable engine rooted at
// d.Dir: it loads the newest readable checkpoint, replays the WAL tail
// beyond it through the normal apply path, and returns an engine whose
// every subsequently accepted batch is journaled before it is
// acknowledged (under the default fsync policy). The swarm keyspace is
// re-partitioned by the engine's current shard count, so cfg.Shards may
// differ from the run that wrote the checkpoint.
func OpenDurable(cfg Config, d DurabilityConfig) (*Engine, RecoveryStats, error) {
	var rs RecoveryStats
	if d.Dir == "" {
		return nil, rs, errors.New("ingest: DurabilityConfig.Dir is required")
	}
	if err := os.MkdirAll(d.Dir, 0o755); err != nil {
		return nil, rs, err
	}
	e := newEngine(cfg)

	// 1. Newest readable checkpoint → shard maps (still single-threaded).
	ckptSeq, swarms, dedupRecs, err := loadNewestCheckpoint(d.Dir, e.shards)
	if err != nil {
		return nil, rs, err
	}
	rs.CheckpointSeq, rs.CheckpointSwarms = ckptSeq, swarms
	e.dedup.install(dedupRecs)

	// 2. Open the journal, repairing any torn tail.
	reg := e.metrics.reg
	log, ws, err := wal.Open(d.Dir, wal.Options{
		SegmentBytes:      d.SegmentBytes,
		Policy:            d.Fsync,
		SyncEvery:         d.SyncEvery,
		FsyncSeconds:      reg.Histogram("wal_fsync_seconds", obs.LatencyBuckets),
		SegmentBytesGauge: reg.Gauge("wal_segment_bytes"),
	})
	if err != nil {
		return nil, rs, err
	}
	rs.TruncatedBytes, rs.DroppedSegments = ws.TruncatedBytes, ws.DroppedSegments

	// 3. Replay the tail through the ordinary apply path. The journal is
	// not attached yet, so replayed batches are not re-journaled — they
	// are already in the log, at the sequences being read.
	e.start()
	replayed := reg.Counter("recovery_replayed_total")
	var badSeq uint64
	replayErr := log.Replay(ckptSeq+1, func(seq uint64, payload []byte) error {
		source, batchSeq, ops, derr := decodeFrame(payload)
		if derr != nil {
			badSeq = seq
			return derr
		}
		if serr := e.Submit(ops); serr != nil {
			return serr
		}
		if source != "" {
			// The journal already arbitrated this key (SubmitKeyed only
			// journals first applications), so replay just re-marks it.
			e.dedup.observe(source, batchSeq)
		}
		rs.ReplayedFrames++
		rs.ReplayedOps += uint64(len(ops))
		replayed.Add(uint64(len(ops)))
		return nil
	})
	if replayErr != nil {
		if badSeq == 0 {
			// Not a decode failure (Submit error or envelope corruption
			// that slipped past Open's repair): refuse to serve a state
			// we cannot trust.
			log.Close()
			e.Close()
			return nil, rs, replayErr
		}
		// A well-framed but undecodable payload: cut the log at the bad
		// frame so this boot's state and every later boot's agree.
		rs.BadFrameSeq = badSeq
		if terr := log.TruncateFrom(badSeq); terr != nil {
			log.Close()
			e.Close()
			return nil, rs, terr
		}
	}

	// 4. Keep sequence numbers monotonic past the checkpoint even when
	// the journal tail was shorter than it (lost or repaired away):
	// frames ≤ ckptSeq are replayed history and must never be reused.
	if err := log.AdvanceTo(ckptSeq); err != nil {
		log.Close()
		e.Close()
		return nil, rs, err
	}

	e.Flush() // replay fully applied before the first producer sees the engine
	e.journal = newJournal(log, reg)
	e.journal.lastCkpt = ckptSeq
	return e, rs, nil
}

// WAL returns the engine's journal log, or nil for an engine without a
// durability layer (one built by New). The cluster's WAL-shipping
// endpoints read from it with Tail, which is safe alongside the
// engine's appends.
func (e *Engine) WAL() *wal.Log {
	if e.journal == nil {
		return nil
	}
	return e.journal.log
}

// DurableDir returns the durability directory (WAL segments and
// checkpoint files), or "" for a non-durable engine.
func (e *Engine) DurableDir() string {
	if e.journal == nil {
		return ""
	}
	return e.journal.log.Dir()
}

// NewestCheckpoint reports the newest checkpoint file in dir: its path
// and the WAL sequence it covers. ok is false when dir holds no
// checkpoint. The WAL-shipping bootstrap path serves this file to a
// follower whose catch-up point has been truncated out of the journal.
func NewestCheckpoint(dir string) (path string, seq uint64, ok bool, err error) {
	seqs, err := listCheckpoints(dir)
	if err != nil || len(seqs) == 0 {
		return "", 0, false, err
	}
	return checkpointPath(dir, seqs[0]), seqs[0], true, nil
}

// Checkpoint serializes the engine's full state to a checkpoint file in
// the durability directory and drops the WAL segments it makes
// redundant. Concurrent producers stall only for the snapshot capture
// (per-shard state copy), not for the file write. Calling it on a
// closed engine still works — the drained final state is captured —
// provided the engine was closed by Close (which leaves checkpointing
// to the caller) rather than crashed.
func (e *Engine) Checkpoint() (CheckpointStats, error) {
	var cs CheckpointStats
	j := e.journal
	if j == nil {
		return cs, ErrNotDurable
	}
	start := time.Now()
	defer func() { cs.Duration = time.Since(start) }()

	j.gate.Lock()
	defer j.gate.Unlock()
	// With the gate held exclusively, every journaled batch has been
	// sent to its shard queue (enqueue spans append+send under RLock),
	// so a persist message queued now observes everything ≤ seq.
	seq := j.log.LastSeq()
	if seq == j.lastCkpt {
		cs.Seq, cs.Skipped = seq, true
		return cs, nil
	}

	snaps := make([]*shardSnapshot, 0, len(e.shards))
	if e.enter() {
		ch := make(chan *shardSnapshot, len(e.shards))
		for _, s := range e.shards {
			s.in <- shardMsg{persist: ch}
		}
		for range e.shards {
			snaps = append(snaps, <-ch)
		}
		e.exit()
	} else {
		// Closed: the drain is complete once done closes, and the shard
		// goroutines have exited — their state is safe to read in place.
		<-e.done
		for _, s := range e.shards {
			snaps = append(snaps, s.snapshot())
		}
	}
	sort.Slice(snaps, func(i, k int) bool { return snaps[i].Idx < snaps[k].Idx })
	for _, s := range snaps {
		cs.Swarms += len(s.Swarms)
	}

	// The gate is held exclusively, so no keyed submit is mid-mark: the
	// windows captured here are exactly the ones the journaled prefix
	// ≤ seq produced.
	bytes, err := writeCheckpoint(j.log.Dir(), seq, len(e.shards), snaps, e.dedup.records())
	if err != nil {
		return cs, err
	}
	cs.Seq, cs.Bytes = seq, bytes
	e.metrics.checkpointSeconds.Observe(time.Since(start).Seconds())

	// Space reclamation is best-effort: replay starts from the
	// checkpoint's seq regardless, so a failed truncate or prune costs
	// disk, not correctness.
	if err := j.log.TruncateThrough(seq); err != nil && !errors.Is(err, wal.ErrClosed) {
		return cs, err
	}
	if err := pruneCheckpoints(j.log.Dir()); err != nil {
		return cs, err
	}
	j.lastCkpt = seq
	return cs, nil
}

func checkpointPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("checkpoint-%016d.bin", seq))
}

// writeCheckpoint renders the snapshot to checkpoint-<seq>.bin via a
// fsynced temp file + atomic rename: the file either exists whole and
// checksummed or not at all.
func writeCheckpoint(dir string, seq uint64, shards int, snaps []*shardSnapshot, dedup []dedupRecord) (int64, error) {
	tmp, err := os.CreateTemp(dir, "checkpoint-*.tmp")
	if err != nil {
		return 0, err
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()

	var swarms int
	for _, s := range snaps {
		swarms += len(s.Swarms)
	}
	hdr, err := json.Marshal(checkpointHeader{Version: checkpointVersion, Seq: seq, Shards: shards, Swarms: swarms})
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriterSize(tmp, 1<<20)
	var scratch []byte
	writeFrame := func(payload []byte) error {
		scratch = wal.AppendFrame(scratch[:0], payload)
		_, werr := w.Write(scratch)
		return werr
	}
	if err := writeFrame(hdr); err != nil {
		return 0, err
	}
	for _, s := range snaps {
		payload, merr := json.Marshal(s)
		if merr != nil {
			return 0, merr
		}
		if err := writeFrame(payload); err != nil {
			return 0, err
		}
	}
	// v2: one mandatory dedup frame after the shard frames (an empty
	// window table still writes "[]" so the reader never guesses).
	if dedup == nil {
		dedup = []dedupRecord{}
	}
	dedupPayload, err := json.Marshal(dedup)
	if err != nil {
		return 0, err
	}
	if err := writeFrame(dedupPayload); err != nil {
		return 0, err
	}
	if err := w.Flush(); err != nil {
		return 0, err
	}
	if err := tmp.Sync(); err != nil {
		return 0, err
	}
	size, err := tmp.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, err
	}
	name := tmp.Name()
	if err := tmp.Close(); err != nil {
		return 0, err
	}
	tmp = nil
	if err := os.Rename(name, checkpointPath(dir, seq)); err != nil {
		os.Remove(name)
		return 0, err
	}
	syncDirBestEffort(dir)
	return size, nil
}

// listCheckpoints returns the checkpoint sequences present in dir,
// newest first.
func listCheckpoints(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, ent := range ents {
		name := ent.Name()
		if !strings.HasPrefix(name, "checkpoint-") || !strings.HasSuffix(name, ".bin") {
			continue
		}
		seq, perr := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "checkpoint-"), ".bin"), 10, 64)
		if perr != nil {
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, k int) bool { return seqs[i] > seqs[k] })
	return seqs, nil
}

// loadNewestCheckpoint installs the newest readable checkpoint into the
// shards and returns its sequence. A torn or corrupt checkpoint is
// skipped in favour of the next older one — recovery degrades to a
// longer WAL replay, never a refusal to start.
func loadNewestCheckpoint(dir string, shards []*shard) (uint64, int, []dedupRecord, error) {
	seqs, err := listCheckpoints(dir)
	if err != nil {
		return 0, 0, nil, err
	}
	for _, seq := range seqs {
		swarms, dedup, lerr := loadCheckpoint(checkpointPath(dir, seq), seq, shards)
		if lerr == nil {
			return seq, swarms, dedup, nil
		}
		// Reset any partial install and fall back to the next older
		// checkpoint.
		for _, s := range shards {
			s.reset()
		}
	}
	return 0, 0, nil, nil
}

// loadCheckpoint reads one checkpoint file into the shards, routing
// each swarm by the *current* hash (the checkpoint's shard count need
// not match).
func loadCheckpoint(path string, wantSeq uint64, shards []*shard) (int, []dedupRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, nil, err
	}
	defer f.Close()
	r := wal.NewFrameReader(bufio.NewReaderSize(f, 1<<20))

	frame, err := r.Next()
	if err != nil {
		return 0, nil, fmt.Errorf("ingest: checkpoint header: %w", err)
	}
	var hdr checkpointHeader
	if err := json.Unmarshal(frame, &hdr); err != nil {
		return 0, nil, fmt.Errorf("ingest: checkpoint header: %w", err)
	}
	if hdr.Version < 1 || hdr.Version > checkpointVersion {
		return 0, nil, fmt.Errorf("ingest: checkpoint version %d not supported", hdr.Version)
	}
	if hdr.Seq != wantSeq {
		return 0, nil, fmt.Errorf("ingest: checkpoint header seq %d does not match file name %d", hdr.Seq, wantSeq)
	}

	// Parse everything before installing anything, so a torn tail can't
	// leave half a checkpoint in the shard maps.
	snaps := make([]*shardSnapshot, 0, hdr.Shards)
	for i := 0; i < hdr.Shards; i++ {
		frame, err := r.Next()
		if err != nil {
			return 0, nil, fmt.Errorf("ingest: checkpoint shard frame %d/%d: %w", i, hdr.Shards, err)
		}
		snap := &shardSnapshot{}
		if err := json.Unmarshal(frame, snap); err != nil {
			return 0, nil, fmt.Errorf("ingest: checkpoint shard frame %d/%d: %w", i, hdr.Shards, err)
		}
		snaps = append(snaps, snap)
	}
	var dedup []dedupRecord
	if hdr.Version >= 2 {
		frame, err := r.Next()
		if err != nil {
			return 0, nil, fmt.Errorf("ingest: checkpoint dedup frame: %w", err)
		}
		if err := json.Unmarshal(frame, &dedup); err != nil {
			return 0, nil, fmt.Errorf("ingest: checkpoint dedup frame: %w", err)
		}
	}

	var swarms int
	n := len(shards)
	for _, snap := range snaps {
		routed := make(map[int]*shardSnapshot)
		for _, rec := range snap.Swarms {
			dst := shardIndex(rec.ID, n)
			rs, ok := routed[dst]
			if !ok {
				rs = &shardSnapshot{Idx: dst}
				routed[dst] = rs
			}
			rs.Swarms = append(rs.Swarms, rec)
			swarms++
		}
		// Category counters are additive across shards; land the old
		// shard's counters on one current shard, preserving totals.
		if len(snap.Cats) > 0 {
			dst := snap.Idx % n
			rs, ok := routed[dst]
			if !ok {
				rs = &shardSnapshot{Idx: dst}
				routed[dst] = rs
			}
			rs.Cats = snap.Cats
		}
		for dst, rs := range routed {
			shards[dst].install(rs)
		}
	}
	return swarms, dedup, nil
}

// pruneCheckpoints removes all but the checkpointsKept newest files.
func pruneCheckpoints(dir string) error {
	seqs, err := listCheckpoints(dir)
	if err != nil {
		return err
	}
	for _, seq := range seqs[min(len(seqs), checkpointsKept):] {
		if err := os.Remove(checkpointPath(dir, seq)); err != nil {
			return err
		}
	}
	return nil
}

// syncDirBestEffort fsyncs dir so the checkpoint rename is durable.
func syncDirBestEffort(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}
