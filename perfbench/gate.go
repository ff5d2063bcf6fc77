package main

import (
	"bytes"
	"fmt"
	"net/http/httptest"

	"swarmavail/internal/ingest"
)

// reference is the in-process engine the cluster's answers are checked
// against: it is fed exactly the ops the cluster acknowledged.
type reference struct {
	e   *ingest.Engine
	ops int
}

func newReference() *reference { return &reference{e: ingest.New(ingest.Config{Shards: 2})} }

func (r *reference) close() { r.e.Close() }

func (r *reference) submit(ops []ingest.Op) error {
	r.ops += len(ops)
	return r.e.Submit(ops)
}

// submitFrames decodes acked wire frames and feeds their ops, source by
// source, in order.
func (r *reference) submitFrames(frames [sources][][]byte) error {
	for _, fs := range frames {
		for _, f := range fs {
			_, _, ops, err := ingest.DecodeFrame(f)
			if err != nil {
				return err
			}
			if err := r.submit(ops); err != nil {
				return err
			}
		}
	}
	return nil
}

// bodies renders the reference's mergeable state exactly as a node or
// the gateway serves it on /v1/state and /v1/window/state.
func (r *reference) bodies() (state, window []byte) {
	r.e.Flush()
	st := httptest.NewRecorder()
	ingest.WriteState(st, r.e.Summary())
	win := httptest.NewRecorder()
	ingest.WriteJSON(win, r.e.Window())
	return st.Body.Bytes(), win.Body.Bytes()
}

// checkState is the correctness gate: the served /v1/state and
// /v1/window/state must be byte-identical to the reference's, and the
// applied-record counter must have grown by exactly the ops acked
// (applied < 0 skips that check). Every mismatch is one note; a count
// mismatch is also reported as that many failed ops.
func checkState(ref *reference, fetch func(path string) ([]byte, error), applied, acked int) (notes []string, failedOps int) {
	wantState, wantWin := ref.bodies()
	for _, q := range []struct {
		path string
		want []byte
	}{
		{"/v1/state?consistent=1", wantState},
		{"/v1/window/state?consistent=1", wantWin},
	} {
		got, err := fetch(q.path)
		if err != nil {
			notes = append(notes, fmt.Sprintf("%s: %v", q.path, err))
			continue
		}
		if !bytes.Equal(got, q.want) {
			notes = append(notes, fmt.Sprintf("%s differs from the reference engine (%d vs %d bytes)", q.path, len(got), len(q.want)))
		}
	}
	if applied >= 0 && applied != acked {
		notes = append(notes, fmt.Sprintf("ingest_applied_total grew by %d, %d ops were acked", applied, acked))
		failedOps = abs(applied - acked)
	}
	if len(notes) > 0 && failedOps == 0 {
		failedOps = 1
	}
	return notes, failedOps
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// gateCluster runs checkState against the cluster through the gateway.
func gateCluster(res *result, c *deployment, ref *reference, d *driveOut, acked int) {
	g := newHTTPGetter(1)
	defer g.close()
	applied := int(c.deltaSum("ingest_applied_total", "availd", d.before, d.after))
	notes, failed := checkState(ref, func(p string) ([]byte, error) { return g.get(c.gw.httpURL + p) }, applied, acked)
	res.gateNotes = append(res.gateNotes, notes...)
	res.failed += failed
}
