// Command benchdiff turns `go test -bench` output into comparable JSON
// snapshots and diffs two snapshots for performance regressions.
//
// Emit a snapshot (reads benchmark text from stdin or a file):
//
//	go test -run '^$' -bench . -benchmem ./internal/obs | benchdiff -emit BENCH_obs.json
//
// Compare a fresh run against a committed baseline, failing (exit 1) on
// any regression: ns/op or allocs/op growing, or records/sec shrinking,
// beyond each metric's threshold. Allocation counts are near-noiseless
// and independent of the host once a benchmark's one-time set-up
// amortizes (at -benchtime=1x it does not), which makes allocs/op the
// leading indicator — an alloc regression shows up long before the
// timing noise resolves.
//
//	benchdiff -base BENCH_baseline.json -new BENCH_new.json
//
// Per-metric thresholds: -threshold for ns/op (default 20%),
// -allocs-threshold for allocs/op (default 10%), -rate-threshold for
// records/sec (default 20%). Set a threshold negative to ignore that
// metric.
//
// A benchmark the baseline carries but the new run cannot vouch for —
// missing from the run, or reporting a zero/absent ns/op — is a named
// warning and fails the compare the same way a regression does: silent
// coverage shrinkage is how baselines rot.
//
// With -warn timing regressions (ns/op, records/sec) and warnings are
// reported but the exit status stays 0 — the mode CI smoke jobs use,
// where shared-runner timings are too noisy to gate a merge on. An
// allocs/op regression still exits 1 under -warn: allocation counts do
// not depend on the runner, so they stay a gate.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result. Metrics maps unit → value
// for every "value unit" pair on the line (ns/op, B/op, allocs/op and
// any ReportMetric extras such as records/sec).
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Snapshot is the emitted file format.
type Snapshot struct {
	Benchmarks []Benchmark `json:"benchmarks"`
}

// gomaxprocsSuffix strips the trailing "-N" procs suffix from benchmark
// names so snapshots from machines with different core counts compare.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// parseBench extracts benchmark result lines from `go test -bench`
// output. Lines that are not benchmark results (headers, PASS/ok,
// arbitrary test logging) are ignored.
func parseBench(r io.Reader) (*Snapshot, error) {
	snap := &Snapshot{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		// A result line is "BenchmarkName  N  value unit [value unit]...".
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		b := Benchmark{
			Name:       gomaxprocsSuffix.ReplaceAllString(fields[0], ""),
			Iterations: iters,
			Metrics:    make(map[string]float64, (len(fields)-2)/2),
		}
		ok := true
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				ok = false
				break
			}
			b.Metrics[fields[i+1]] = v
		}
		if ok {
			snap.Benchmarks = append(snap.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.Slice(snap.Benchmarks, func(i, j int) bool {
		return snap.Benchmarks[i].Name < snap.Benchmarks[j].Name
	})
	return snap, nil
}

func readSnapshot(path string) (*Snapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// metricSpec is one compared metric: its unit string as it appears in
// benchmark output, the fractional change that counts as a regression,
// and its direction (ns/op and allocs/op regress by growing,
// records/sec by shrinking). A negative threshold disables the metric.
type metricSpec struct {
	unit        string
	threshold   float64
	lowerBetter bool
}

// defaultSpecs builds the standard metric set from the three threshold
// flags.
func defaultSpecs(nsop, allocs, rate float64) []metricSpec {
	return []metricSpec{
		{unit: "ns/op", threshold: nsop, lowerBetter: true},
		allocsSpec(allocs),
		{unit: "records/sec", threshold: rate, lowerBetter: false},
	}
}

// allocsSpec is the allocs/op metric: the one -warn does not downgrade.
func allocsSpec(threshold float64) metricSpec {
	return metricSpec{unit: "allocs/op", threshold: threshold, lowerBetter: true}
}

// diff compares the specs' metrics between base and new. It returns
// human-readable report lines (one per benchmark per metric present on
// both sides), the number of metric regressions beyond their
// thresholds, and the number of warnings: baselined benchmarks the new
// run cannot vouch for because they are missing or report no usable
// ns/op. A warning is not a measured regression, but it means baseline
// coverage silently shrank — CI treats it like one unless -warn.
func diff(base, fresh *Snapshot, specs []metricSpec) (lines []string, regressions, warnings int) {
	baseBy := make(map[string]Benchmark, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseBy[b.Name] = b
	}
	seen := make(map[string]bool, len(fresh.Benchmarks))
	for _, n := range fresh.Benchmarks {
		seen[n.Name] = true
		b, ok := baseBy[n.Name]
		if !ok {
			lines = append(lines, fmt.Sprintf("new  %s (no baseline)", n.Name))
			continue
		}
		// A benchmark both sides know about but either side cannot
		// time is a named warning: the baseline entry exists precisely
		// so this benchmark stays covered.
		if b.Metrics["ns/op"] <= 0 {
			lines = append(lines, fmt.Sprintf("warn %s: baseline has no usable ns/op (%v); re-emit the baseline",
				n.Name, b.Metrics["ns/op"]))
			warnings++
			continue
		}
		if n.Metrics["ns/op"] <= 0 {
			lines = append(lines, fmt.Sprintf("warn %s: baseline expects %s ns/op but the new run reports %v — benchmark broken or skipped?",
				n.Name, fmtMetric(b.Metrics["ns/op"]), n.Metrics["ns/op"]))
			warnings++
			continue
		}
		for _, spec := range specs {
			if spec.threshold < 0 {
				continue
			}
			bv, okB := b.Metrics[spec.unit]
			nv, okN := n.Metrics[spec.unit]
			if !okB || !okN {
				continue
			}
			// delta is the metric's fractional change; worse is the
			// change in the "bad" direction for this metric. A zero
			// baseline (e.g. allocs/op 0 → n) has no finite percentage:
			// it regresses if the metric grew in the bad direction, and
			// the report shows the raw values instead of an "+Inf%".
			var delta float64
			fromZero := bv == 0 && nv != 0
			switch {
			case bv == nv:
				delta = 0
			case fromZero:
				delta = math.Inf(1)
			default:
				delta = nv/bv - 1
			}
			worse := delta
			if !spec.lowerBetter {
				worse = -delta
			}
			mark := "ok  "
			if worse > spec.threshold {
				mark = "FAIL"
				regressions++
			} else if worse < -spec.threshold {
				mark = "good"
			}
			change := fmt.Sprintf("%+.1f%%", 100*delta)
			if fromZero {
				change = "from zero baseline"
			}
			lines = append(lines, fmt.Sprintf("%s %s %s → %s %s (%s)",
				mark, n.Name, fmtMetric(bv), fmtMetric(nv), spec.unit, change))
		}
	}
	for _, b := range base.Benchmarks {
		if !seen[b.Name] {
			lines = append(lines, fmt.Sprintf("warn %s: in baseline, missing from new run — benchmark renamed or not selected?", b.Name))
			warnings++
		}
	}
	return lines, regressions, warnings
}

// fmtMetric keeps small values readable (7.2) without drowning big ones
// in decimals (4644068).
func fmtMetric(v float64) string {
	if v != 0 && math.Abs(v) < 100 {
		return strconv.FormatFloat(v, 'f', 1, 64)
	}
	return strconv.FormatFloat(v, 'f', 0, 64)
}

func run(args []string, stdin io.Reader, stdout io.Writer) (exit int) {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		emit      = fs.String("emit", "", "parse benchmark text (stdin or trailing file arg) and write a JSON snapshot here")
		base      = fs.String("base", "", "baseline snapshot to compare against")
		fresh     = fs.String("new", "", "fresh snapshot to compare")
		threshold = fs.Float64("threshold", 0.2, "fractional ns/op growth that counts as a regression (negative = ignore)")
		allocsThr = fs.Float64("allocs-threshold", 0.1, "fractional allocs/op growth that counts as a regression (negative = ignore)")
		rateThr   = fs.Float64("rate-threshold", 0.2, "fractional records/sec shrinkage that counts as a regression (negative = ignore)")
		warn      = fs.Bool("warn", false, "report timing regressions and warnings but exit 0 (for noisy smoke runs); allocs/op regressions still fail")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	switch {
	case *emit != "":
		in := stdin
		if fs.NArg() == 1 {
			f, err := os.Open(fs.Arg(0))
			if err != nil {
				fmt.Fprintf(stdout, "benchdiff: %v\n", err)
				return 1
			}
			defer f.Close()
			in = f
		}
		snap, err := parseBench(in)
		if err != nil {
			fmt.Fprintf(stdout, "benchdiff: %v\n", err)
			return 1
		}
		if len(snap.Benchmarks) == 0 {
			fmt.Fprintln(stdout, "benchdiff: no benchmark results in input")
			return 1
		}
		b, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			fmt.Fprintf(stdout, "benchdiff: %v\n", err)
			return 1
		}
		if err := os.WriteFile(*emit, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintf(stdout, "benchdiff: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "benchdiff: wrote %d benchmarks to %s\n", len(snap.Benchmarks), *emit)
		return 0

	case *base != "" && *fresh != "":
		bs, err := readSnapshot(*base)
		if err != nil {
			fmt.Fprintf(stdout, "benchdiff: %v\n", err)
			return 1
		}
		ns, err := readSnapshot(*fresh)
		if err != nil {
			fmt.Fprintf(stdout, "benchdiff: %v\n", err)
			return 1
		}
		lines, regressions, warnings := diff(bs, ns, defaultSpecs(*threshold, *allocsThr, *rateThr))
		for _, l := range lines {
			fmt.Fprintln(stdout, l)
		}
		_, allocRegressions, _ := diff(bs, ns, []metricSpec{allocsSpec(*allocsThr)})
		bad := false
		if regressions > 0 {
			fmt.Fprintf(stdout, "benchdiff: %d metric(s) regressed beyond threshold\n", regressions)
			bad = true
		}
		if warnings > 0 {
			fmt.Fprintf(stdout, "benchdiff: %d baselined benchmark(s) not vouched for by the new run\n", warnings)
			bad = true
		}
		if bad {
			if !*warn {
				return 1
			}
			if allocRegressions > 0 {
				fmt.Fprintf(stdout, "benchdiff: -warn downgrades timing only; %d allocs/op regression(s) still fail\n", allocRegressions)
				return 1
			}
			fmt.Fprintln(stdout, "benchdiff: -warn set, not failing")
		}
		return 0

	default:
		fmt.Fprintln(stdout, "benchdiff: need either -emit OUT or -base A -new B (see -h)")
		return 2
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout))
}
