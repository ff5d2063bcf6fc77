package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"swarmavail/internal/bittorrent/metainfo"
	"swarmavail/internal/bittorrent/tracker"
	"swarmavail/internal/dist"
	"swarmavail/internal/ingest"
	"swarmavail/internal/measure"
	"swarmavail/internal/trace"
)

// Monitor-fleet sizing. The leecher population and churn are
// assumptions, fitted to no measured swarm: six leechers flipping with
// 2% chance a round give about 0.12 leecher transitions per swarm per
// round, so most announces return an unchanged peer list and ProbeDiff
// emits sparse transitions, as a monitor of many quiet swarms sees.
const (
	monSwarms     = 64
	monMonitors   = 4 // two per source; each owns every 4th swarm
	monLeechers   = 6 // leechers per swarm besides the publisher seed
	monRoundEvery = 15 * time.Millisecond
	monLeechFlip  = 0.02 // per-round chance a leecher joins or leaves
	monIDBase     = 1 << 20
)

// monPeer is one synthetic peer: its tracker identity and the rounds
// at which it is online, [start, end) pairs.
type monPeer struct {
	swarm    int
	seed     bool
	peerID   [20]byte
	port     int
	sessions [][2]int
}

// monCampaign is the ground truth the fleet observes.
type monCampaign struct {
	rounds   int
	dayPer   float64 // days per round
	horizon  float64 // days
	metas    []trace.SwarmMeta
	hashes   []metainfo.InfoHash
	peers    []monPeer
	events   []map[int][]int // per round: peer index → +1 start / -1 stop, by swarm
	seedAddr map[string]bool // "127.0.0.1:port" → seed
	truth    []trace.SwarmTrace
}

// buildMonCampaign derives the campaign from trace.GenerateStudy: each
// swarm's publisher seed follows its study sessions, quantized to probe
// rounds, and monLeechers leechers come and go at random. The ground
// truth trace of each swarm is its quantized, merged seed sessions, so
// internal/measure's offline availability is exactly what a monitor
// that sees every round should report.
func buildMonCampaign(seed int64, rounds int) *monCampaign {
	study := trace.GenerateStudy(trace.DefaultStudyConfig(monSwarms, seed))
	mc := &monCampaign{rounds: rounds, seedAddr: make(map[string]bool)}
	mc.horizon = study[0].MonitoredDays
	mc.dayPer = mc.horizon / float64(rounds)
	r := rand.New(rand.NewSource(seed))
	for j, st := range study {
		meta := st.Meta
		meta.ID = monIDBase + j
		mc.metas = append(mc.metas, meta)
		var ih metainfo.InfoHash
		binary.BigEndian.PutUint64(ih[:], uint64(meta.ID))
		binary.BigEndian.PutUint64(ih[8:], uint64(seed))
		mc.hashes = append(mc.hashes, ih)

		pub := mc.newPeer(j, true)
		pub.sessions = quantize(st.SeedSessions, mc.dayPer, rounds)
		var ivs []dist.Interval
		for _, s := range pub.sessions {
			ivs = append(ivs, dist.Interval{Start: float64(s[0]) * mc.dayPer, End: float64(s[1]) * mc.dayPer})
		}
		mc.truth = append(mc.truth, trace.SwarmTrace{Meta: meta, SeedSessions: ivs, MonitoredDays: mc.horizon})
		mc.peers = append(mc.peers, *pub)
		for l := 0; l < monLeechers; l++ {
			p := mc.newPeer(j, false)
			on, start := false, 0
			for rd := 0; rd < rounds; rd++ {
				if r.Float64() < monLeechFlip {
					if on && rd > start {
						p.sessions = append(p.sessions, [2]int{start, rd})
					}
					on, start = !on, rd
				}
			}
			if on && start < rounds {
				p.sessions = append(p.sessions, [2]int{start, rounds})
			}
			mc.peers = append(mc.peers, *p)
		}
	}
	mc.events = make([]map[int][]int, rounds+1)
	for i := range mc.events {
		mc.events[i] = make(map[int][]int)
	}
	for pi, p := range mc.peers {
		for _, s := range p.sessions {
			mc.events[s[0]][p.swarm] = append(mc.events[s[0]][p.swarm], pi+1)
			if s[1] < rounds {
				mc.events[s[1]][p.swarm] = append(mc.events[s[1]][p.swarm], -(pi + 1))
			}
		}
	}
	return mc
}

func (mc *monCampaign) newPeer(swarm int, seed bool) *monPeer {
	p := &monPeer{swarm: swarm, seed: seed, port: 20000 + len(mc.peers)}
	copy(p.peerID[:], fmt.Sprintf("-PB0001-%012d", len(mc.peers)))
	mc.seedAddr[fmt.Sprintf("127.0.0.1:%d", p.port)] = seed
	return p
}

// quantize maps day intervals onto probe rounds: a session is online
// from the first round at or after its start to the first round at or
// after its end. Sessions that vanish or touch are merged away.
func quantize(ivs []dist.Interval, dayPer float64, rounds int) [][2]int {
	var out [][2]int
	for _, iv := range ivs {
		a := int(math.Ceil(iv.Start / dayPer))
		b := min(int(math.Ceil(iv.End/dayPer)), rounds)
		if b <= a {
			continue
		}
		if n := len(out); n > 0 && a <= out[n-1][1] {
			out[n-1][1] = max(out[n-1][1], b)
			continue
		}
		out = append(out, [2]int{a, b})
	}
	return out
}

// monitorSource is one source's share of the fleet: its monitors'
// differs and the stream sender.
type monitorSource struct {
	s      int
	snd    *writer
	diffs  map[int]*ingest.ProbeDiff // swarm → differ
	frames [][]byte
}

// runMonitorFleet: synthetic peers announce to cmd/tracker -udp along
// the campaign's sessions; each round the monitors announce every swarm
// through tracker.UDPClient, diff the peer lists with ingest.ProbeDiff
// and stream the transitions over two sources into the gateway.
func runMonitorFleet(cfg runCfg, tr *tracer) (*result, error) {
	// The unit of work is a record applied or an announce answered: the
	// records a campaign yields vary by seed, the announces hardly.
	res := &result{workload: "monitor-fleet", seed: cfg.seed, opUnit: "op"}
	from, to := window(cfg)
	rounds := int(to / int64(monRoundEvery))
	mc := buildMonCampaign(cfg.seed, rounds)
	o := clusterOpts{binDir: cfg.binDir, workDir: cfg.workDir, tracker: true}
	c, err := launchRepeated(o, "mon", setupRuns, res)
	if err != nil {
		return nil, err
	}
	defer c.remove()
	trackerURL := "udp://" + c.trackerUDP

	var srcs [sources]*monitorSource
	var canaryMu sync.Mutex
	var canaryDue [sources][]int64
	var annMu sync.Mutex
	var annLat []float64 // ms, announces due in the measured window
	var annDue []int64   // their rounds' due times
	var annAtt, annFail int
	udp := &tracker.UDPClient{Timeout: 500 * time.Millisecond, MaxRetransmits: 2}
	announce := func(req tracker.AnnounceRequest, due int64, parent int64) (*tracker.AnnounceResponse, error) {
		sp := tr.open("tracker.announce", parent)
		t0 := time.Now()
		resp, err := udp.Announce(req)
		lat := float64(time.Since(t0)) / 1e6
		tr.close(sp, 1)
		if due >= from && due < to {
			annMu.Lock()
			annAtt++
			if err != nil {
				annFail++
			} else {
				annLat = append(annLat, lat)
				annDue = append(annDue, due)
			}
			annMu.Unlock()
		}
		return resp, err
	}
	d, err := drive(c, from, to, tr, func(d *driveOut) load {
		var ld load
		for s := range srcs {
			src := &monitorSource{s: s, diffs: make(map[int]*ingest.ProbeDiff),
				snd: newStreamWriter(c.gwBin, fmt.Sprintf("perfbench-mon-s%d", s), rounds*monMonitors/sources+4, d.ck, tr)}
			srcs[s] = src
			d.writers[s] = src.snd
			ld.sources = append(ld.sources, source{
				run: func() error {
					return src.snd.stream(func() error {
						return src.run(mc, rounds, trackerURL, announce, d.ck, tr, func(due int64) {
							canaryMu.Lock()
							canaryDue[s] = append(canaryDue[s], due)
							canaryMu.Unlock()
						})
					})
				},
				// Each round, each of the source's monitors sends a frame.
				backlog: func(now int64) int {
					dueNow := int(now/int64(monRoundEvery)) * monMonitors / sources
					return max(dueNow, int(src.snd.issued.Load())) - int(src.snd.acked.Load())
				},
			})
		}
		ld.canaryDue = func(s, k int) (int64, bool) {
			canaryMu.Lock()
			defer canaryMu.Unlock()
			if k < 0 || k >= len(canaryDue[s]) {
				return 0, false
			}
			return canaryDue[s][k], true
		}
		return ld
	})
	if err != nil {
		return nil, err
	}
	if err := d.collect(res, from, to, c); err != nil {
		return nil, err
	}
	res.announce = annLat
	for _, due := range annDue {
		res.opsWin[min(int((due-from)*subWindows/(to-from)), subWindows-1)]++
	}
	res.attempted += annAtt
	res.failed += annFail
	if annFail > 0 {
		res.failNotes = append(res.failNotes, fmt.Sprintf("%d announces failed", annFail))
	}

	ref := newReference()
	defer ref.close()
	var acked [sources][][]byte
	for s, src := range srcs {
		acked[s] = src.frames[:src.snd.acked.Load()]
	}
	if err := ref.submitFrames(acked); err != nil {
		return nil, err
	}
	gateCluster(res, c, ref, d, ref.ops)
	gateAvailability(res, c, mc)
	if tr != nil {
		in := layerInputs{mc: mc}
		for _, src := range srcs {
			for _, f := range src.frames[:min(400, len(src.frames))] {
				if _, _, ops, err := ingest.DecodeFrame(f); err == nil {
					in.batches = append(in.batches, ops)
				}
			}
		}
		return res, traceLayers(cfg, res, tr, c, d, in)
	}
	return res, nil
}

// run drives one source's monitors through every round, then closes
// their differs at the horizon.
func (m *monitorSource) run(mc *monCampaign, rounds int, trackerURL string,
	announce func(tracker.AnnounceRequest, int64, int64) (*tracker.AnnounceResponse, error),
	ck clock, tr *tracer, canary func(due int64)) error {
	push := func(due int64, ops []ingest.Op) error {
		i := len(m.frames)
		ops = append(ops, canaryOp(m.s, i))
		canary(due)
		f, err := ingest.EncodeFrame(nil, m.snd.source, uint64(i+1), ops)
		if err != nil {
			return err
		}
		m.frames = append(m.frames, f)
		return m.snd.push(i, due, f, len(ops))
	}
	// Register the source's swarms first, so availability is computed
	// against each swarm's horizon from its first transition on.
	var metas []ingest.Op
	for j, meta := range mc.metas {
		if j%sources == m.s {
			metas = append(metas, ingest.MetaOp(meta, mc.horizon))
			m.diffs[j] = ingest.NewProbeDiff(meta.ID)
		}
	}
	if err := push(0, metas); err != nil {
		return err
	}
	for rd := 0; rd <= rounds; rd++ {
		due := int64(rd) * int64(monRoundEvery)
		ck.sleepUntil(due)
		tDays := float64(rd) * mc.dayPer
		for mon := m.s; mon < monMonitors; mon += sources {
			var ops []ingest.Op
			for j := mon; j < monSwarms; j += monMonitors {
				root := tr.open("monitor.round", 0)
				if rd == rounds {
					ops = append(ops, m.diffs[j].Close(tDays)...)
					tr.close(root, 0)
					continue
				}
				// The swarm's peers that join or leave this round
				// announce first; then the monitor looks.
				for _, ev := range mc.events[rd][j] {
					p := &mc.peers[abs(ev)-1]
					req := tracker.AnnounceRequest{TrackerURL: trackerURL, InfoHash: mc.hashes[j], PeerID: p.peerID,
						Port: p.port, IP: "127.0.0.1", Event: "started", NumWant: 1}
					if !p.seed {
						req.Left = 1
					}
					if ev < 0 {
						req.Event = "stopped"
					}
					if _, err := announce(req, due, root.ID); err != nil {
						return fmt.Errorf("peer announce: %w", err)
					}
				}
				var monID [20]byte
				copy(monID[:], fmt.Sprintf("-PBMON-%013d", mon))
				resp, err := announce(tracker.AnnounceRequest{TrackerURL: trackerURL, InfoHash: mc.hashes[j], PeerID: monID,
					Port: 19000 + mon, IP: "127.0.0.2", Left: 1, NumWant: 200}, due, root.ID)
				if err != nil {
					return fmt.Errorf("monitor announce: %w", err)
				}
				obs := make([]ingest.PeerObservation, 0, len(resp.Peers))
				for _, pa := range resp.Peers {
					addr := pa.String()
					seed, ok := mc.seedAddr[addr]
					if !ok {
						continue // another monitor
					}
					obs = append(obs, ingest.PeerObservation{Key: ingest.ObservationKey(addr), Seed: seed})
				}
				sp := tr.open("monitor.diff", root.ID)
				recs := m.diffs[j].Ops(tDays, obs)
				tr.close(sp, len(obs))
				ops = append(ops, recs...)
				tr.close(root, len(obs))
			}
			if err := push(due, ops); err != nil {
				return err
			}
		}
	}
	return nil
}

// gateAvailability checks every swarm's served availability against
// internal/measure's offline analysis of the ground-truth campaign. It
// reads with ?consistent=1: a plain read is served from a snapshot that
// may lag the last acked records by up to the engine's SnapshotMaxAge.
func gateAvailability(res *result, c *deployment, mc *monCampaign) {
	g := newHTTPGetter(1)
	defer g.close()
	bad := 0
	for j, t := range mc.truth {
		body, err := g.get(fmt.Sprintf("%s/v1/swarm/%d?consistent=1", c.gw.httpURL, mc.metas[j].ID))
		if err != nil {
			res.gateNotes = append(res.gateNotes, fmt.Sprintf("swarm %d: %v", mc.metas[j].ID, err))
			bad++
			continue
		}
		var st ingest.SwarmStats
		if err := json.Unmarshal(body, &st); err != nil {
			res.gateNotes = append(res.gateNotes, fmt.Sprintf("swarm %d: %v", mc.metas[j].ID, err))
			bad++
			continue
		}
		fm, full := measure.Availability(t)
		if st.FirstMonth != fm || st.Full != full {
			res.gateNotes = append(res.gateNotes, fmt.Sprintf("swarm %d: served availability %v/%v, offline analysis %v/%v",
				mc.metas[j].ID, st.FirstMonth, st.Full, fm, full))
			bad++
		}
	}
	res.failed += bad
}
