package ingest

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// BenchmarkSnapshotPublish measures the publish layer on one shard
// holding 1024 swarms with live window rings:
//
//   - full: one aggregate publish — the Summary fold over every swarm
//     plus a copy of the delta-kept window aggregate — the cost every
//     shard pays once per SnapshotMaxAge under sustained writes and on
//     every dirty Flush.
//   - views/dirty=32: one queue-drain publish of the 32 swarm views a
//     batch dirtied, the cost paid after every batch that leaves the
//     queue empty.
func BenchmarkSnapshotPublish(b *testing.B) {
	const swarms = 1024
	s := newShard(0, 1, newMetrics(nil, 1), &batchPool{}, Config{}.withDefaults(1).windowConfig(), time.Hour)
	rng := rand.New(rand.NewSource(1))
	ops := make([]Op, 0, 64*swarms)
	for i := 0; i < 64*swarms; i++ {
		ops = append(ops, EventOp(Record{
			SwarmID: i % swarms, PeerID: uint64(rng.Intn(8)),
			Seed: rng.Intn(2) == 0, Online: rng.Intn(3) != 0,
			Time: float64(i/swarms) * 1.5,
		}))
	}
	s.applyBatch(ops)
	s.publish()
	states := make([]*swarmState, 0, swarms)
	for _, st := range s.swarms {
		states = append(states, st)
	}

	b.Run(fmt.Sprintf("full/swarms=%d", swarms), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.publish()
		}
	})
	b.Run("views/dirty=32", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for k := 0; k < 32; k++ {
				s.touch(states[(i*32+k)%swarms])
			}
			s.publishViews()
		}
	})
}
