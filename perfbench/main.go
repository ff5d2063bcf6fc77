// Command perfbench is swarmavail's end-to-end pipeline benchmark. It
// builds nothing itself (run.sh builds it and the daemons), launches
// the real cmd/availd, cmd/availgw and cmd/tracker binaries on
// loopback — availgw over two durable availd nodes — drives one named
// open-loop workload at them, checks the answers against an in-process
// reference engine, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload stream-durable --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with
// --trace 1 it holds the per-layer metrics, taken from spans the
// benchmark records around its own calls into each layer's public
// functions and from /metrics deltas of every daemon. --workload all
// runs every workload in turn, each followed by its rate ladder
// (max_rps, max_qps), and prints a table of all the end-to-end metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// runCfg is one invocation's settings.
type runCfg struct {
	root    string
	binDir  string
	workDir string
	seed    int64
	seconds float64
	trace   bool
	ladder  bool // climb the rate ladders (--workload all)
}

// result is everything one workload run measured.
type result struct {
	workload string
	seed     int64

	setup    []float64 // s, one per cluster launch
	from, to int64     // the measured window, ns from the run's start
	ack      []sample  // due → ack per frame or batch
	fresh    []sample  // canary record due → visible through the gateway
	query    []sample  // due → answer per query
	announce []float64 // ms, UDP announce round trips
	late     []float64 // ms, how late the generator issued each op

	cpu        map[string]float64 // CPU seconds per process name over the measured window
	cpuWin     []float64          // all server CPU seconds, per slice of the window
	opsWin     [subWindows]int    // the workload's units of work completed, per slice
	opUnit     string             // "rec" or "query"
	rssMB      float64
	attempted  int
	failed     int
	backlogMax int

	maxRate  float64 // ladder result (0 = not run)
	rateUnit string

	gateNotes []string           // correctness-gate mismatches
	failNotes []string           // what the failed ops were
	layers    map[string]float64 // per-layer metrics (traced run only)
}

// workloads, in the order --workload all runs them.
var workloads = []struct {
	name string
	run  func(runCfg, *tracer) (*result, error)
}{
	{"stream-durable", runStreamDurable},
	{"json-ingest", runJSONIngest},
	{"read-mix", runReadMix},
	{"monitor-fleet", runMonitorFleet},
}

func main() {
	var (
		cfg      runCfg
		workload = flag.String("workload", "", "workload name, or all")
		traced   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.StringVar(&cfg.root, "root", ".", "repository root (the checkout under test)")
	flag.StringVar(&cfg.binDir, "bin", "", "directory holding the availd, availgw and tracker binaries")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds per run")
	flag.Parse()
	cfg.trace = *traced == 1
	if err := run(cfg, *workload); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg runCfg, workload string) error {
	if cfg.binDir == "" {
		return fmt.Errorf("-bin is required")
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	runtime.GOMAXPROCS(2) // at most two threads of load
	// The generator holds its whole precomputed schedule; collect less
	// often so its own GC pauses rarely delay a due op.
	debug.SetGCPercent(400)
	cfg.workDir = filepath.Join(cfg.root, ".bench_build", "work", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.workDir)

	if workload == "all" {
		cfg.ladder = true
		var rows []*result
		for _, w := range workloads {
			res, err := w.run(cfg, nil)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			rows = append(rows, res)
		}
		printTable(rows)
		return nil
	}
	for _, w := range workloads {
		if w.name != workload {
			continue
		}
		if !cfg.trace {
			res, err := w.run(cfg, nil)
			if err != nil {
				return err
			}
			printTable([]*result{res})
			return emit(res, false)
		}
		// A traced run repeats the workload untraced first; the
		// difference of the two is the tracing overhead.
		base, err := w.run(cfg, nil)
		if err != nil {
			return err
		}
		fmt.Println("untraced pass:")
		printTable([]*result{base})
		tr := newTracer()
		res, err := w.run(cfg, tr)
		if err != nil {
			return err
		}
		b, t := base.primaryMs(), res.primaryMs()
		res.layers["bench.trace_overhead_pct"] = (t - b) / b * 100
		fmt.Printf("headline median latency: untraced %.4fms, traced %.4fms\n", b, t)
		fmt.Println("traced pass:")
		res.attempted += base.attempted
		res.failed += base.failed
		res.gateNotes = append(res.gateNotes, base.gateNotes...)
		res.failNotes = append(res.failNotes, base.failNotes...)
		printTable([]*result{res})
		if err := finishTrace(cfg, res, tr); err != nil {
			return err
		}
		return emit(res, true)
	}
	return fmt.Errorf("unknown workload %q", workload)
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine names the end-to-end metrics of the result line — the
// ones BENCHMARK.json bounds. The other figures endToEnd returns are
// printed in the table only: on a shared 2-vCPU host, CPU steal moves
// wall-clock ack and query latencies 2-4x from run to run, beyond any
// bound a regression gate could use (see METRICS.md).
var resultLine = []string{"setup_s", "cpu_us_per_op", "rss_mb", "fresh_p50_ms", "fresh_p99_ms"}

// endToEnd returns the end-to-end metrics every workload reports.
func (r *result) endToEnd() map[string]metric {
	ack, fresh, query := r.windowed(r.ack), r.windowed(r.fresh), r.windowed(r.query)
	// Like the timings, CPU per op is the median of the slices' figures.
	var perOp []float64
	for i, cpu := range r.cpuWin {
		perOp = append(perOp, cpu*1e6/float64(max(r.opsWin[i], 1)))
	}
	return map[string]metric{
		"setup_s":       {median(r.setup), "s"},
		"ack_p50_ms":    {ack.P50, "ms"},
		"ack_p99_ms":    {ack.Tail, "ms"},
		"fresh_p50_ms":  {fresh.P50, "ms"},
		"fresh_p99_ms":  {fresh.Tail, "ms"},
		"query_p50_ms":  {query.P50, "ms"},
		"query_p99_ms":  {query.Tail, "ms"},
		"cpu_us_per_op": {median(perOp), "us"},
		"rss_mb":        {r.rssMB, "MiB"},
	}
}

// primaryMs is the workload's headline latency: the median query on
// read-mix, the median write ack elsewhere.
func (r *result) primaryMs() float64 {
	if r.opUnit == "query" {
		return r.windowed(r.query).P50
	}
	return r.windowed(r.ack).P50
}

// windowed summarises one of the run's sample sets over its measured
// window.
func (r *result) windowed(ss []sample) timing {
	return windowedTiming(ss, r.from, r.to, subWindows)
}

// correct is the run's verdict: every gate check passed and no op
// failed, so fail_ratio is 0.
func (r *result) correct() bool {
	return len(r.gateNotes) == 0 && r.failed == 0
}

func (r *result) failRatio() float64 {
	return float64(r.failed) / float64(max(r.attempted, 1))
}

// emit prints the result line: the last line of standard output.
func emit(r *result, traced bool) error {
	all := r.endToEnd()
	ms := make(map[string]metric)
	for _, k := range resultLine {
		ms[k] = all[k]
	}
	if traced {
		ms = make(map[string]metric)
		for _, m := range layerMetrics {
			ms[m.name] = metric{r.layers[m.name], m.unit}
		}
	}
	for k, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not a number", k)
		}
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, ms}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// printTable prints every end-to-end metric of each result, by the
// names the benchmark documents, with units.
func printTable(rows []*result) {
	for _, r := range rows {
		ack, fresh, query, ann := r.windowed(r.ack), r.windowed(r.fresh), r.windowed(r.query), summarize(r.announce)
		fmt.Printf("== %s (seed %d): %d ops attempted, %d failed\n", r.workload, r.seed, r.attempted, r.failed)
		e := r.endToEnd()
		names := make([]string, 0, len(e))
		for k := range e {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Printf("  %-16s %12.4f %s\n", k, e[k].Value, e[k].Unit)
		}
		fmt.Printf("  %-16s %12.4f %s  (server CPU per %s)\n", "cpu_us_per_"+r.opUnit, e["cpu_us_per_op"].Value, "us", r.opUnit)
		if r.rateUnit != "" {
			name := "max_rps"
			if r.rateUnit == "q/s" {
				name = "max_qps"
			}
			fmt.Printf("  %-16s %12.0f %s\n", name, r.maxRate, r.rateUnit)
		}
		if ann.N > 0 {
			fmt.Printf("  %-16s %12.4f ms  (p%g of %d)\n", "announce_p99_ms", ann.Tail, ann.TailAt, ann.N)
		}
		fmt.Printf("  %-16s %12.6f\n", "fail_ratio", r.failRatio())
		fmt.Printf("  samples per window (median of up to %d): ack p%g of %d, fresh p%g of %d, query p%g of %d; gen late p99 %.3fms, backlog max %d\n",
			subWindows, ack.TailAt, ack.N, fresh.TailAt, fresh.N, query.TailAt, query.N, summarize(r.late).Tail, r.backlogMax)
		for _, w := range []struct {
			name string
			t    timing
		}{{"ack", ack}, {"fresh", fresh}, {"query", query}} {
			fmt.Printf("  %s per window (p50/tail ms):", w.name)
			for _, p := range w.t.Parts {
				fmt.Printf(" %.2f/%.2f", p.P50, p.Tail)
			}
			fmt.Println()
		}
		fmt.Printf("  cpu per slice (us/%s):", r.opUnit)
		for i, cpu := range r.cpuWin {
			fmt.Printf(" %.3f", cpu*1e6/float64(max(r.opsWin[i], 1)))
		}
		fmt.Println()
		for _, n := range r.failNotes {
			fmt.Printf("  FAILED OPS: %s\n", n)
		}
		for _, n := range r.gateNotes {
			fmt.Printf("  GATE FAILURE: %s\n", n)
		}
		if r.layers != nil {
			for _, m := range layerMetrics {
				fmt.Printf("  %-34s %14.4f %-8s -> %s\n", m.name, r.layers[m.name], m.unit, m.moves)
			}
		}
	}
}

// finishTrace writes the run's spans next to the other build outputs.
func finishTrace(cfg runCfg, r *result, tr *tracer) error {
	dir := filepath.Join(cfg.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.jsonl", r.workload, r.seed, time.Now().Format("20060102T150405")))
	if err := tr.write(path); err != nil {
		return err
	}
	fmt.Printf("spans: %s\n", strings.TrimPrefix(path, cfg.root+"/"))
	return nil
}
