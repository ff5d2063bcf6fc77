package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: swarmavail/internal/obs
cpu: Fake CPU @ 3.00GHz
BenchmarkCounterInc-8        	165605597	         7.245 ns/op	       0 B/op	       0 allocs/op
BenchmarkHistogramObserve-8  	65471112	        18.31 ns/op	       0 B/op	       0 allocs/op
BenchmarkIngest/shards=8-8   	      37	  31404549 ns/op	       365 records/sec	 97000 records/op
some test log line that is not a benchmark
PASS
ok  	swarmavail/internal/obs	8.713s
`

func TestParseBench(t *testing.T) {
	snap, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %+v", len(snap.Benchmarks), snap.Benchmarks)
	}
	byName := map[string]Benchmark{}
	for _, b := range snap.Benchmarks {
		byName[b.Name] = b
	}
	// The -8 procs suffix is stripped so snapshots compare across hosts.
	ci, ok := byName["BenchmarkCounterInc"]
	if !ok {
		t.Fatalf("BenchmarkCounterInc missing (names: %v)", byName)
	}
	if ci.Iterations != 165605597 || ci.Metrics["ns/op"] != 7.245 || ci.Metrics["allocs/op"] != 0 {
		t.Errorf("bad parse: %+v", ci)
	}
	ing := byName["BenchmarkIngest/shards=8"]
	if ing.Metrics["records/sec"] != 365 {
		t.Errorf("custom ReportMetric lost: %+v", ing)
	}
}

func mkSnap(pairs map[string]float64) *Snapshot {
	s := &Snapshot{}
	for name, ns := range pairs {
		s.Benchmarks = append(s.Benchmarks, Benchmark{
			Name: name, Iterations: 1, Metrics: map[string]float64{"ns/op": ns},
		})
	}
	return s
}

func TestDiff(t *testing.T) {
	base := mkSnap(map[string]float64{"A": 100, "B": 100, "C": 100, "Gone": 50})
	fresh := mkSnap(map[string]float64{"A": 105, "B": 150, "C": 60, "New": 10})
	lines, regressions, warnings := diff(base, fresh, defaultSpecs(0.2, 0.1, 0.2))
	if regressions != 1 {
		t.Fatalf("regressions = %d, want 1 (only B grew >20%%)\n%s", regressions, strings.Join(lines, "\n"))
	}
	if warnings != 1 {
		t.Fatalf("warnings = %d, want 1 (Gone vanished)\n%s", warnings, strings.Join(lines, "\n"))
	}
	joined := strings.Join(lines, "\n")
	for _, want := range []string{"FAIL B", "good C", "ok   A", "new  New", "warn Gone: in baseline, missing from new run"} {
		if !strings.Contains(joined, want) {
			t.Errorf("report missing %q:\n%s", want, joined)
		}
	}
}

// TestDiffWarnsOnUnvouchedBaseline pins the warning contract: a
// benchmark the baseline carries but the new run cannot time is a named
// warning, never a silent skip — and a zero baseline metric never
// renders as an infinite percentage.
func TestDiffWarnsOnUnvouchedBaseline(t *testing.T) {
	base := &Snapshot{Benchmarks: []Benchmark{
		mkBench("Broken", map[string]float64{"ns/op": 100}),
		mkBench("Stale", map[string]float64{"ns/op": 0}),
		mkBench("Vanished", map[string]float64{"ns/op": 100}),
		mkBench("ZeroAllocs", map[string]float64{"ns/op": 100, "allocs/op": 0}),
	}}
	fresh := &Snapshot{Benchmarks: []Benchmark{
		mkBench("Broken", map[string]float64{"ns/op": 0}), // ran, but timed nothing
		mkBench("Stale", map[string]float64{"ns/op": 100}),
		mkBench("ZeroAllocs", map[string]float64{"ns/op": 100, "allocs/op": 4}),
	}}
	lines, regressions, warnings := diff(base, fresh, defaultSpecs(0.2, 0.1, 0.2))
	joined := strings.Join(lines, "\n")
	if warnings != 3 {
		t.Fatalf("warnings = %d, want 3:\n%s", warnings, joined)
	}
	if regressions != 1 {
		t.Fatalf("regressions = %d, want 1 (allocs from zero):\n%s", regressions, joined)
	}
	for _, want := range []string{
		"warn Broken: baseline expects 100 ns/op but the new run reports 0",
		"warn Stale: baseline has no usable ns/op",
		"warn Vanished: in baseline, missing from new run",
		"FAIL ZeroAllocs 0 → 4.0 allocs/op (from zero baseline)",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("report missing %q:\n%s", want, joined)
		}
	}
	if strings.Contains(joined, "Inf") {
		t.Errorf("report leaks an infinite percentage:\n%s", joined)
	}
	if strings.Contains(joined, "skip ") {
		t.Errorf("silent skip survived:\n%s", joined)
	}
}

// mkBench builds a snapshot whose benchmarks carry arbitrary metric
// sets, for the multi-metric comparisons.
func mkBench(name string, metrics map[string]float64) Benchmark {
	return Benchmark{Name: name, Iterations: 1, Metrics: metrics}
}

func TestDiffMultiMetric(t *testing.T) {
	base := &Snapshot{Benchmarks: []Benchmark{
		mkBench("Ingest", map[string]float64{"ns/op": 100, "allocs/op": 50, "records/sec": 1000}),
		mkBench("Decode", map[string]float64{"ns/op": 100, "allocs/op": 0, "records/sec": 1000}),
	}}
	fresh := &Snapshot{Benchmarks: []Benchmark{
		// ns/op fine (+5%), allocs up 20% (> 10% threshold),
		// records/sec down 30% (> 20% threshold): two regressions.
		mkBench("Ingest", map[string]float64{"ns/op": 105, "allocs/op": 60, "records/sec": 700}),
		// allocs 0 → 3 is a regression from a zero baseline; throughput
		// up 50% is an improvement, not a regression.
		mkBench("Decode", map[string]float64{"ns/op": 100, "allocs/op": 3, "records/sec": 1500}),
	}}
	lines, regressions, warnings := diff(base, fresh, defaultSpecs(0.2, 0.1, 0.2))
	joined := strings.Join(lines, "\n")
	if regressions != 3 {
		t.Fatalf("regressions = %d, want 3:\n%s", regressions, joined)
	}
	if warnings != 0 {
		t.Fatalf("warnings = %d, want 0:\n%s", warnings, joined)
	}
	for _, want := range []string{
		"ok   Ingest 100 → 105 ns/op",
		"FAIL Ingest 50.0 → 60.0 allocs/op (+20.0%)",
		"FAIL Ingest 1000 → 700 records/sec (-30.0%)",
		"FAIL Decode 0 → 3.0 allocs/op (from zero baseline)",
		"good Decode 1000 → 1500 records/sec (+50.0%)",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("report missing %q:\n%s", want, joined)
		}
	}

	// Per-metric opt-out: a negative threshold silences that metric.
	_, regressions, _ = diff(base, fresh, defaultSpecs(0.2, -1, -1))
	if regressions != 0 {
		t.Fatalf("with allocs+rate ignored: regressions = %d, want 0", regressions)
	}
}

func TestRunEmitAndCompare(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.json")
	newPath := filepath.Join(dir, "new.json")

	var out bytes.Buffer
	if code := run([]string{"-emit", basePath}, strings.NewReader(sampleOutput), &out); code != 0 {
		t.Fatalf("emit exit %d: %s", code, out.String())
	}
	// A second emit with one benchmark 2x slower.
	slower := strings.Replace(sampleOutput, "7.245 ns/op", "15.0 ns/op", 1)
	if code := run([]string{"-emit", newPath}, strings.NewReader(slower), &out); code != 0 {
		t.Fatalf("emit exit %d: %s", code, out.String())
	}

	out.Reset()
	if code := run([]string{"-base", basePath, "-new", newPath}, nil, &out); code != 1 {
		t.Fatalf("compare exit %d, want 1 (regression):\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "FAIL BenchmarkCounterInc") {
		t.Errorf("regression not reported:\n%s", out.String())
	}

	// -warn keeps the exit status green for noisy smoke runs.
	out.Reset()
	if code := run([]string{"-warn", "-base", basePath, "-new", newPath}, nil, &out); code != 0 {
		t.Fatalf("warn-mode exit %d, want 0:\n%s", code, out.String())
	}

	// Identical snapshots: clean exit, no FAIL lines.
	out.Reset()
	if code := run([]string{"-base", basePath, "-new", basePath}, nil, &out); code != 0 {
		t.Fatalf("self-compare exit %d:\n%s", code, out.String())
	}
	if strings.Contains(out.String(), "FAIL") {
		t.Errorf("self-compare reported a regression:\n%s", out.String())
	}

	// Emit with no benchmark lines is an error, not an empty file.
	out.Reset()
	if code := run([]string{"-emit", filepath.Join(dir, "empty.json")}, strings.NewReader("PASS\n"), &out); code != 1 {
		t.Fatalf("empty emit exit %d, want 1", code)
	}
	if _, err := os.Stat(filepath.Join(dir, "empty.json")); err == nil {
		t.Error("empty snapshot was written")
	}
}

// TestRunWarnGatesAllocsOnly pins what -warn downgrades: a timing
// regression (ns/op, records/sec) exits 0 under -warn, an allocs/op
// regression beyond -allocs-threshold still exits 1.
func TestRunWarnGatesAllocsOnly(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, snap *Snapshot) string {
		t.Helper()
		path := filepath.Join(dir, name)
		b, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", &Snapshot{Benchmarks: []Benchmark{
		mkBench("Ingest", map[string]float64{"ns/op": 100, "allocs/op": 50, "records/sec": 1000}),
	}})
	slower := write("slower.json", &Snapshot{Benchmarks: []Benchmark{
		mkBench("Ingest", map[string]float64{"ns/op": 300, "allocs/op": 50, "records/sec": 300}),
	}})
	allocier := write("allocier.json", &Snapshot{Benchmarks: []Benchmark{
		mkBench("Ingest", map[string]float64{"ns/op": 100, "allocs/op": 60, "records/sec": 1000}),
	}})

	var out bytes.Buffer
	if code := run([]string{"-warn", "-base", base, "-new", slower}, nil, &out); code != 0 {
		t.Fatalf("-warn with timing-only regressions: exit %d, want 0:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "-warn set, not failing") {
		t.Errorf("timing regression not downgraded by name:\n%s", out.String())
	}

	out.Reset()
	if code := run([]string{"-warn", "-base", base, "-new", allocier}, nil, &out); code != 1 {
		t.Fatalf("-warn with an allocs/op regression: exit %d, want 1:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "FAIL Ingest 50.0 → 60.0 allocs/op") || !strings.Contains(out.String(), "1 allocs/op regression(s) still fail") {
		t.Errorf("allocs/op gate not reported:\n%s", out.String())
	}
}
