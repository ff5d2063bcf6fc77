package main

import (
	"net/http/httptest"
	"testing"

	"swarmavail/internal/ingest"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, // 10 beyond p99.9
		{9999, 99},
		{1000, 99}, // exactly 10 beyond p99
		{999, 95},
		{200, 95},
		{199, 90},
		{100, 90},
		{40, 75},
		{20, 50},
		{19, 0},
	} {
		if got := tailPercentile(c.n, 100); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if got := tailPercentile(100000, 99); got != 99 {
		t.Errorf("limit 99 not honoured: got %v", got)
	}
}

func TestSummarizeReportsSampleCountAndPercentile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..1000
	}
	s := summarize(xs)
	if s.N != 1000 || s.TailAt != 99 || s.Tail != 990 || s.P50 != 500 {
		t.Fatalf("summarize = %+v, want N=1000 p99=990 p50=500", s)
	}
	s = summarize(xs[:500])
	if s.TailAt != 95 || s.Tail != 475 {
		t.Fatalf("500 samples: got p%v=%v, want p95=475", s.TailAt, s.Tail)
	}
}

func TestWindowedTimingTakesMedianSlice(t *testing.T) {
	var ss []sample
	// Three slices of 1000 samples; the middle one is slow throughout.
	for w := 0; w < 3; w++ {
		for i := 0; i < 1000; i++ {
			v := 1.0
			if w == 1 {
				v = 50
			}
			ss = append(ss, sample{due: int64(w*1000 + i), ms: v})
		}
	}
	ss = append(ss, sample{due: -1, ms: 1e9}) // before the window: ignored
	got := windowedTiming(ss, 0, 3000, 3)
	if got.P50 != 1 || got.Tail != 1 || got.N != 1000 || got.TailAt != 99 {
		t.Fatalf("windowedTiming = %+v, want the median slice (p50 = p99 = 1)", got)
	}
}

func TestLadderStopsAtFirstMiss(t *testing.T) {
	flat := []int{5, 6, 5, 6, 5, 6}
	growing := []int{2, 3, 5, 9, 14, 20}
	rungs := []rung{
		{Rate: 100, P99: 3, BacklogLog: flat},
		{Rate: 200, P99: 8, BacklogLog: flat},
		{Rate: 300, P99: 30, BacklogLog: flat}, // misses the 20ms limit
		{Rate: 400, P99: 5, BacklogLog: flat},  // a lucky later pass does not count
	}
	if got := ladderMax(rungs, 20, 2); got != 200 {
		t.Fatalf("ladderMax = %v, want 200", got)
	}
	rungs[1].BacklogLog = growing
	if got := ladderMax(rungs, 20, 2); got != 100 {
		t.Fatalf("growing backlog at 200: ladderMax = %v, want 100", got)
	}
	rungs[0].Failed = 1
	if got := ladderMax(rungs, 20, 2); got != 0 {
		t.Fatalf("failure on the first rung: ladderMax = %v, want 0", got)
	}
	if backlogGrows([]int{40, 38, 41, 39, 40, 42}, 2) {
		t.Fatal("a level backlog read as growing")
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "child", Start: 30, End: 50},  // overlaps 2: counted once
		{ID: 4, Parent: 1, Name: "child", Start: 90, End: 120}, // runs past the parent: clipped
		{ID: 5, Parent: 2, Name: "leaf", Start: 15, End: 20},
		{ID: 6, Name: "other", Start: 0, End: 7, Count: 7},
	}
	lt := selfTimes(spans)
	if got := lt["root"].Self; got != 100-40-10 {
		t.Errorf("root self = %d, want 50", got)
	}
	// child 2: 30 - 5 (leaf); child 3: 20; child 4: 30.
	if got := lt["child"].Self; got != 25+20+30 {
		t.Errorf("child self = %d, want 75", got)
	}
	if got := lt["child"].Total; got != 30+20+30 {
		t.Errorf("child total = %d, want 80", got)
	}
	if got := lt["other"].perItem(1); got != 1 {
		t.Errorf("other per item = %v, want 1", got)
	}
}

// gateAgainst runs checkState with the "cluster" played by an
// in-process engine fed served, and the reference fed acked.
func gateAgainst(t *testing.T, acked, served []ingest.Op) ([]string, int) {
	t.Helper()
	ref := newReference()
	defer ref.close()
	if err := ref.submit(acked); err != nil {
		t.Fatal(err)
	}
	node := ingest.New(ingest.Config{Shards: 1})
	defer node.Close()
	if err := node.Submit(served); err != nil {
		t.Fatal(err)
	}
	node.Flush()
	fetch := func(path string) ([]byte, error) {
		w := httptest.NewRecorder()
		if path == "/v1/state?consistent=1" {
			ingest.WriteState(w, node.Summary())
		} else {
			ingest.WriteJSON(w, node.Window())
		}
		return w.Body.Bytes(), nil
	}
	return checkState(ref, fetch, len(served), len(acked))
}

func TestGateCountsDroppedAndDuplicatedRecords(t *testing.T) {
	streams := studyStreams(3, 0, 2000)
	ops := interleaveSources(streams)

	if notes, failed := gateAgainst(t, ops, ops); len(notes) != 0 || failed != 0 {
		t.Fatalf("identical streams failed the gate: %v", notes)
	}

	dropped := append(append([]ingest.Op(nil), ops[:1000]...), ops[1001:]...)
	notes, failed := gateAgainst(t, ops, dropped)
	if len(notes) < 2 || failed != 1 {
		t.Fatalf("dropped record: notes %v, failed %d; want a state mismatch and a count mismatch", notes, failed)
	}

	dup := append(append([]ingest.Op(nil), ops[:1001]...), ops[1000:]...)
	notes, failed = gateAgainst(t, ops, dup)
	if len(notes) < 2 || failed != 1 {
		t.Fatalf("duplicated record: notes %v, failed %d; want a state mismatch and a count mismatch", notes, failed)
	}
}

func TestCampaignIsSeededAndKeepsSwarmOrder(t *testing.T) {
	a, b := studyStreams(7, 100, 5000), studyStreams(7, 100, 5000)
	for s := range a {
		if len(a[s]) != 5000 || len(b[s]) != 5000 {
			t.Fatalf("source %d: %d and %d ops, want 5000", s, len(a[s]), len(b[s]))
		}
		last := make(map[int]float64)
		for i := range a[s] {
			ra, _ := a[s][i].EventRecord()
			rb, _ := b[s][i].EventRecord()
			if ra != rb {
				t.Fatalf("same seed, different op %d: %+v vs %+v", i, ra, rb)
			}
			if ra.SwarmID%sources != s {
				t.Fatalf("swarm %d on source %d", ra.SwarmID, s)
			}
			if t0, ok := last[ra.SwarmID]; ok && ra.Time < t0 {
				t.Fatalf("swarm %d goes back in time: %v after %v", ra.SwarmID, ra.Time, t0)
			}
			last[ra.SwarmID] = ra.Time
		}
	}
	c := studyStreams(8, 100, 5000)
	same := true
	for i := range c[0] {
		if c[0][i] != a[0][i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds gave the same campaign")
	}
}

func TestAddOpsCreditsEachSliceItsCompletedWork(t *testing.T) {
	l := newOpLog(6)
	// Ops due at 0 (before the window), 10, 40, 70, 95 and 100 (after
	// it); the op due at 70 failed.
	dues := []int64{0, 10, 40, 70, 95, 100}
	for i, due := range dues {
		l.due[i], l.size[i], l.done[i] = due, 10+i, due+1
	}
	l.fail[3] = true
	r := &result{from: 5, to: 100}
	r.addOps(l, len(dues))
	var want [subWindows]int
	b := sliceBounds(r.from, r.to)
	for _, i := range []int{1, 2, 4} { // completed, inside the window
		for k := 0; k < subWindows; k++ {
			if dues[i] >= b[k] && dues[i] < b[k+1] {
				want[k] += 10 + i
			}
		}
	}
	total := 0
	for _, n := range want {
		total += n
	}
	if r.opsWin != want || total != 11+12+14 {
		t.Fatalf("opsWin = %v, want %v", r.opsWin, want)
	}
}

func TestFailedQueryFlipsVerdict(t *testing.T) {
	fold := func(failed ...int) *result {
		d := &driveOut{queries: newOpLog(4), qIssued: 4, probe: newCanaryProbe(nil, "", probeEvery, 0, nil)}
		for j := 0; j < 4; j++ {
			d.queries.due[j], d.queries.size[j], d.queries.done[j] = int64(10*j), 1, int64(10*j+3)
		}
		for _, j := range failed {
			d.queries.fail[j], d.queries.done[j] = true, 0
		}
		res := &result{opUnit: "query"}
		d.foldOps(res, 0, 100)
		return res
	}
	if r := fold(); !r.correct() || r.attempted != 4 || r.failed != 0 {
		t.Fatalf("clean run: correct %v, %d attempted, %d failed", r.correct(), r.attempted, r.failed)
	}
	if r := fold(2); r.correct() || r.failed != 1 || len(r.gateNotes) != 0 {
		t.Fatalf("one failed query with a clean gate: correct %v, %d failed; want the verdict false", r.correct(), r.failed)
	}
}

func TestReadMixCoversEveryDraw(t *testing.T) {
	ql := readQueries(5, []int{1, 2, 3, 4}, 50, 20e9)
	if len(ql.paths) != len(ql.due) || len(ql.due) != 1000 {
		t.Fatalf("%d paths for %d due times, want 1000 each", len(ql.paths), len(ql.due))
	}
	kinds := make(map[string]int)
	for _, p := range ql.paths {
		kinds[queryKind(p)]++
	}
	if len(kinds) != 5 {
		t.Fatalf("query kinds %v, want all five", kinds)
	}
}
