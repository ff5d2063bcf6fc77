package ingest

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"swarmavail/internal/trace"
)

// refold is the from-scratch oracle for a shard's delta-kept winAgg:
// every swarm ring folded into fresh maps, the way publication worked
// before the aggregate was kept by delta.
func refold(s *shard) *WindowState {
	fine := make(map[int64]*WindowBinState)
	coarse := make(map[int64]*WindowBinState)
	for _, st := range s.swarms {
		st.win.fold(fine, coarse)
	}
	w := newWindowState(&s.wc)
	w.Fine = sortedBins(fine)
	w.Coarse = sortedBins(coarse)
	return w
}

// checkPublished asserts the two publication invariants on an
// unstarted shard: the delta aggregate equals the refold, bin for bin
// (and its page bookkeeping holds no empty page), and every swarm's
// published view equals its live stats.
func checkPublished(t *testing.T, s *shard, step string) {
	t.Helper()
	got, want := s.agg.state(&s.wc), refold(s)
	if !reflect.DeepEqual(got, want) {
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want)
		t.Fatalf("%s: delta aggregate diverged from refold\n--- aggregate ---\n%s\n--- refold ---\n%s", step, gj, wj)
	}
	for _, tab := range []*binTable{&s.agg.fine, &s.agg.coarse} {
		live := 0
		for key, p := range tab.pages {
			if p.live == 0 {
				t.Fatalf("%s: empty page %d retained", step, key)
			}
			if p.key != key {
				t.Fatalf("%s: page %d filed under key %d", step, p.key, key)
			}
			live += p.live
		}
		if live != tab.live {
			t.Fatalf("%s: table live count %d, pages hold %d", step, tab.live, live)
		}
	}
	for id, st := range s.swarms {
		v, ok := s.index.Load(id)
		if !ok || v.(*swarmState) != st {
			t.Fatalf("%s: swarm %d missing from the reader index", step, id)
		}
		view := st.view.Load()
		if view == nil {
			t.Fatalf("%s: swarm %d has no published view", step, id)
		}
		if want := st.stats(); !reflect.DeepEqual(*view, want) {
			t.Fatalf("%s: swarm %d view %+v, stats %+v", step, id, *view, want)
		}
	}
}

// randomBatch draws one batch over a small population. Times mostly
// creep forward but sometimes jump far ahead (forcing fine→coarse folds
// and coarse age-out, up to whole-ring evictions) or land behind the
// swarm's head (late events into coarse bins or beyond retention).
func randomBatch(rng *rand.Rand, clock map[int]float64) []Op {
	ops := make([]Op, 1+rng.Intn(40))
	for i := range ops {
		id := rng.Intn(24)
		switch r := rng.Intn(100); {
		case r < 2:
			ops[i] = MetaOp(trace.SwarmMeta{ID: id, Category: trace.Movies, Title: "m"}, float64(rng.Intn(200)))
			continue
		case r < 4:
			ops[i] = CensusOp(trace.Snapshot{Meta: trace.SwarmMeta{ID: id, Category: trace.Books}, Seeds: rng.Intn(3), Leechers: rng.Intn(5), Downloads: rng.Intn(100)})
			continue
		case r < 7:
			clock[id] += float64(rng.Intn(40)) // jump past the fine ring
		case r < 8:
			clock[id] += float64(1 + rng.Intn(1<<20)) // jump past retention
		case r < 15:
			clock[id] -= rng.Float64() * 30 // late event
			if clock[id] < 0 {
				clock[id] = 0
			}
		default:
			clock[id] += rng.Float64() * 1.5
		}
		ops[i] = EventOp(Record{
			SwarmID: id, PeerID: uint64(rng.Intn(6)),
			Seed: rng.Intn(2) == 0, Online: rng.Intn(3) != 0,
			Time: clock[id],
		})
	}
	return ops
}

// TestWinAggMatchesRefold is the delta-aggregate invariant: after every
// batch of a seeded random stream — far head jumps, late events, and a
// checkpoint restore mid-stream included — the shard's winAgg equals a
// from-scratch refold of every ring, and every swarm view published at
// queue drain equals the swarm's stats().
func TestWinAggMatchesRefold(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fine := 4 + rng.Intn(12)
		if seed%4 == 0 {
			fine = 64 + rng.Intn(80) // rings spanning two or three aggregate pages
		}
		wc := Config{
			WindowBinDays:    []float64{0.5, 1, 3}[seed%3],
			WindowFineBins:   fine,
			WindowFoldFactor: 2 + rng.Intn(4),
			WindowCoarseBins: 2 + rng.Intn(6),
		}.withDefaults(1).windowConfig()
		m := newMetrics(nil, 1)
		s := newShard(0, 1, m, &batchPool{}, wc, time.Hour)
		clock := make(map[int]float64)
		for b := 0; b < 300; b++ {
			s.handle(shardMsg{ops: randomBatch(rng, clock)})
			checkPublished(t, s, "live")
			if b != 150 {
				continue
			}
			// Restore mid-stream: a shard recovered from this one's
			// checkpoint carries an identical aggregate, and the two
			// stay identical from here on.
			raw, err := json.Marshal(s.snapshot())
			if err != nil {
				t.Fatal(err)
			}
			var snap shardSnapshot
			if err := json.Unmarshal(raw, &snap); err != nil {
				t.Fatal(err)
			}
			r := newShard(0, 1, m, &batchPool{}, wc, time.Hour)
			r.install(&snap)
			r.publish() // the recovery flush
			checkPublished(t, r, "restored")
			if !reflect.DeepEqual(r.agg.state(&wc), s.agg.state(&wc)) {
				t.Fatalf("seed %d: restored aggregate differs from the live one", seed)
			}
			s = r
		}
	}
}

// TestSwarmSnapshotVisibleAtQueueDrain: a per-swarm read sees a write
// once the shard queue drains, without Flush and long before the
// aggregate snapshot's SnapshotMaxAge.
func TestSwarmSnapshotVisibleAtQueueDrain(t *testing.T) {
	e := New(Config{Shards: 2, SnapshotMaxAge: time.Hour})
	defer e.Close()
	if _, ok := e.SwarmSnapshot(7); ok {
		t.Fatal("unknown swarm reported present")
	}
	if err := e.Observe(Record{SwarmID: 7, PeerID: 1, Seed: true, Online: true, Time: 1}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(50 * time.Millisecond)
	for {
		if st, ok := e.SwarmSnapshot(7); ok {
			if st.Events != 1 || st.SeedsOnline != 1 {
				t.Fatalf("view %+v, want 1 event, 1 seed online", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("write not visible in SwarmSnapshot within 50ms of submission")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if n := e.metrics.viewPublishLag.Count(); n == 0 {
		t.Fatal("view publish not observed in ingest_view_publish_lag_seconds")
	}
}

// TestSwarmSnapshotVisibleAfterQueuedRead: when a read message sits
// behind the last write batch, the batch finds the queue non-empty and
// skips its views; they must still go out once the read leaves the
// queue empty, not wait for the next write or the aggregate throttle.
// The shard is held on an unread summary reply until the write and a
// Timeline read are both queued behind it.
func TestSwarmSnapshotVisibleAfterQueuedRead(t *testing.T) {
	e := New(Config{Shards: 1, SnapshotMaxAge: time.Hour})
	defer e.Close()
	s := e.shards[0]
	hold := make(chan *Summary)
	s.in <- shardMsg{summary: hold}
	if err := e.Observe(Record{SwarmID: 7, PeerID: 1, Seed: true, Online: true, Time: 1}); err != nil {
		t.Fatal(err)
	}
	timeline := make(chan bool)
	go func() {
		_, ok := e.Timeline(7)
		timeline <- ok
	}()
	for len(s.in) < 2 {
		time.Sleep(100 * time.Microsecond)
	}
	<-hold
	if !<-timeline {
		t.Fatal("Timeline queued behind the write did not see the swarm")
	}
	deadline := time.Now().Add(50 * time.Millisecond)
	for {
		if st, ok := e.SwarmSnapshot(7); ok && st.Events == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("write not visible in SwarmSnapshot within 50ms of the queue draining behind a read")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestSwarmSnapshotReadersRaceWriters runs lock-free per-swarm readers
// against writers (run under -race). Each writer owns its swarms and
// appends events in time order, so a reader must see each swarm's
// event count never go backwards.
func TestSwarmSnapshotReadersRaceWriters(t *testing.T) {
	e := New(Config{Shards: 3, BatchSize: 8})
	const writers, swarmsPer, rounds = 3, 16, 400
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wr := e.NewWriter()
			for i := 0; i < rounds; i++ {
				for k := 0; k < swarmsPer; k++ {
					if err := wr.Observe(Record{SwarmID: w*swarmsPer + k, PeerID: 1, Seed: true, Online: i%2 == 0, Time: float64(i)}); err != nil {
						t.Error(err)
						return
					}
				}
			}
			if err := wr.Flush(); err != nil {
				t.Error(err)
			}
		}(w)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			seen := make([]uint64, writers*swarmsPer)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := (i*7 + r) % len(seen)
				st, ok := e.SwarmSnapshot(id)
				if !ok {
					continue
				}
				if st.Events < seen[id] {
					t.Errorf("swarm %d view went back: %d events after %d", id, st.Events, seen[id])
					return
				}
				seen[id] = st.Events
			}
		}(r)
	}
	wg.Wait()
	e.Flush()
	close(stop)
	readers.Wait()
	for id := 0; id < writers*swarmsPer; id++ {
		if st, ok := e.SwarmSnapshot(id); !ok || st.Events != rounds {
			t.Fatalf("after Flush swarm %d view has %d events (ok=%v), want %d", id, st.Events, ok, rounds)
		}
	}
	e.Close()
}
