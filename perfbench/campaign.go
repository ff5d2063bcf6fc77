package main

import (
	"math/rand"

	"swarmavail/internal/ingest"
	"swarmavail/internal/trace"
)

const (
	sources   = 2       // keyed writer streams (one StreamClient or HTTP writer each)
	canaryID  = 1 << 30 // swarm id of source 0's freshness canary (source s: canaryID+s), outside every campaign
	popSwarms = 2048    // swarms in a write campaign's population
)

// studyStreams turns availability-study swarms (trace.GenerateStudy,
// seeded from seed) into the monitor records a collector would receive
// from a fixed population of popSwarms swarms, ids from idBase: each
// swarm's seed transitions in time order, swarms partitioned between
// sources by id, each source interleaving all of its swarms
// round-robin. A swarm whose study history runs out continues with the
// next generated history, shifted past the previous horizon, so the
// daemons hold the same population — the same state size — however
// long the run. Generation stops once every source holds at least
// perSource records.
func studyStreams(seed int64, idBase, perSource int) [sources][]ingest.Op {
	swarms := make([][]ingest.Op, popSwarms)
	var have [sources]int
	for gen := 0; have[0] < perSource || have[1] < perSource; gen++ {
		cfg := trace.DefaultStudyConfig(popSwarms, seed*7919+int64(gen))
		shift := float64(gen) * cfg.HorizonDays
		for i, t := range trace.GenerateStudy(cfg) {
			id := idBase + i
			t.Meta.ID = id
			for _, op := range ingest.TraceOps(t)[1:] { // records only: JSON ingest carries no registrations
				rec, _ := op.EventRecord()
				rec.Time += shift
				swarms[i] = append(swarms[i], ingest.EventOp(rec))
				have[id%sources]++
			}
		}
	}
	var per [sources][][]ingest.Op
	for i, ops := range swarms {
		if len(ops) > 0 {
			s := (idBase + i) % sources
			per[s] = append(per[s], ops)
		}
	}
	var out [sources][]ingest.Op
	for s := range per {
		out[s] = interleave(per[s], have[s])[:perSource]
	}
	return out
}

// interleave merges per-swarm op lists round-robin, keeping each
// swarm's own order.
func interleave(swarms [][]ingest.Op, total int) []ingest.Op {
	out := make([]ingest.Op, 0, total)
	live := append([][]ingest.Op(nil), swarms...)
	for len(live) > 0 {
		keep := live[:0]
		for _, ops := range live {
			out = append(out, ops[0])
			if ops = ops[1:]; len(ops) > 0 {
				keep = append(keep, ops)
			}
		}
		live = keep
	}
	return out
}

// canaryOp is the k-th record of source s's freshness canary swarm:
// one peer toggling online and offline, so each record bumps the
// swarm's event count by one.
func canaryOp(s, k int) ingest.Op {
	return ingest.EventOp(ingest.Record{
		SwarmID: canaryID + s, PeerID: 1, Seed: true, Online: k%2 == 0, Time: float64(k) * 1e-6,
	})
}

// batchOps cuts source s's ops into batches of size n, each also
// carrying the source's next canary record.
func batchOps(s int, ops []ingest.Op, n int) [][]ingest.Op {
	var out [][]ingest.Op
	for i := 0; i < len(ops); i += n {
		j := min(i+n, len(ops))
		b := make([]ingest.Op, 0, j-i+1)
		b = append(b, ops[i:j]...)
		b = append(b, canaryOp(s, len(out)))
		out = append(out, b)
	}
	return out
}

// zipfIDs draws n swarm ids from ids with Zipf popularity (s = 1.1),
// so a few swarms take most per-swarm queries and some answers repeat
// while the read caches hold them. The exponent is an assumption: the
// repository models content demand as Zipf (internal/dist.ZipfWeights),
// but no measured query popularity backs this value.
func zipfIDs(r *rand.Rand, ids []int, n int) []int {
	z := rand.NewZipf(r, 1.1, 1, uint64(len(ids)-1))
	out := make([]int, n)
	for i := range out {
		out[i] = ids[z.Uint64()]
	}
	return out
}
