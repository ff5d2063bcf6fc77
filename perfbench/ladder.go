package main

import (
	"fmt"
	"os"

	"swarmavail/internal/ingest"
)

// Rate ladders, climbed by --workload all after each workload's
// measured run and gate, on the same cluster: each rung offers a fixed
// rate for ladderRungSec, the first quarter unmeasured. The highest
// rung meeting the latency limit with no failures and no growing
// backlog is the workload's maximum (max_rps or max_qps, printed in
// the table).
const ladderRungSec = 2.0

var (
	streamLadder = []float64{20e3, 40e3, 60e3, 80e3, 120e3, 160e3, 240e3}
	jsonLadder   = []float64{2e3, 4e3, 8e3, 12e3, 16e3, 24e3}
	queryLadder  = []float64{50, 100, 200, 400, 800, 1200}
)

// Latency limits on each rung's tail, sized for a shared 2-vCPU host.
const (
	streamLimitMs = 50.0
	jsonLimitMs   = 100.0
	queryLimitMs  = 100.0
)

func rungWindow() (from, to int64) {
	return int64(ladderRungSec / 4 * 1e9), int64(ladderRungSec * 1e9)
}

// climb runs rungs in ascending order until one misses, then records
// the ladder's maximum on res.
func climb(res *result, rates []float64, limit float64, unit string, step func(rate float64) (rung, error)) error {
	var rungs []rung
	for _, rate := range rates {
		r, err := step(rate)
		if err != nil {
			return err
		}
		rungs = append(rungs, r)
		fmt.Fprintf(os.Stderr, "perfbench: ladder %s %.0f %s: p99 %.2fms, failed %d, backlog %v\n",
			res.workload, rate, unit, r.P99, r.Failed, r.BacklogLog)
		if ladderMax(rungs, limit, 2) < rate {
			break
		}
	}
	res.maxRate = ladderMax(rungs, limit, 2)
	res.rateUnit = unit
	return nil
}

func climbStreamLadder(c *deployment, batches [sources][][]ingest.Op, res *result) error {
	from, to := rungWindow()
	return climb(res, streamLadder, streamLimitMs, "rec/s", func(rate float64) (rung, error) {
		sl, err := buildStreamLoad(fmt.Sprintf("ladder%.0f", rate), batches, rate, to)
		if err != nil {
			return rung{}, err
		}
		d, err := driveStream(c, sl, nil, from, to, nil)
		if err != nil {
			return rung{}, err
		}
		r := &result{opUnit: "rec"}
		d.foldOps(r, from, to)
		return rung{Rate: rate, P99: summarize(values(r.ack)).Tail, Failed: r.failed, BacklogLog: measured(d.samp.series)}, nil
	})
}

func climbJSONLadder(c *deployment, batches [sources][][]ingest.Op, res *result) error {
	from, to := rungWindow()
	return climb(res, jsonLadder, jsonLimitMs, "rec/s", func(rate float64) (rung, error) {
		sl, err := buildStreamLoad(fmt.Sprintf("ladder%.0f", rate), batches, rate, to)
		if err != nil {
			return rung{}, err
		}
		bodies, err := jsonBodies(batches, sl)
		if err != nil {
			return rung{}, err
		}
		d, err := driveJSON(c, sl, bodies, from, to, nil)
		if err != nil {
			return rung{}, err
		}
		r := &result{opUnit: "rec"}
		d.foldOps(r, from, to)
		return rung{Rate: rate, P99: summarize(values(r.ack)).Tail, Failed: r.failed, BacklogLog: measured(d.samp.series)}, nil
	})
}

func climbQueryLadder(seed int64, c *deployment, rd *readData, batches [sources][][]ingest.Op, res *result) error {
	from, to := rungWindow()
	return climb(res, queryLadder, queryLimitMs, "q/s", func(rate float64) (rung, error) {
		// Each rung keeps the workload's light write stream beside the
		// queries, so caches are invalidated as in the measured run.
		sl, err := buildStreamLoad(fmt.Sprintf("ladder%.0f", rate), batches, readWriteRate, to)
		if err != nil {
			return rung{}, err
		}
		d, err := driveStream(c, sl, readQueries(seed, rd.ids, rate, to), from, to, nil)
		if err != nil {
			return rung{}, err
		}
		lat, _, _, failed, _, _ := d.queries.window(from, to, d.qIssued)
		return rung{Rate: rate, P99: summarize(values(lat)).Tail, Failed: failed, BacklogLog: measured(d.samp.series)}, nil
	})
}

// measured drops the unmeasured lead-in from a rung's backlog series.
func measured(series []int) []int {
	return series[min(len(series), len(series)/4):]
}
