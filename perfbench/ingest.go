package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"netplace/internal/core"
	"netplace/internal/encode"
	"netplace/internal/gen"
	"netplace/internal/service"
	"netplace/internal/stream"
	"netplace/internal/workload"
)

// ingest-epochs: one durable netplaced (fsync on every append) and one
// client streaming sequenced 1000-event batches of a seeded drift trace
// into one session whose epoch is 4096 events, so about one batch in
// four closes an epoch. Sequenced ingest allows one batch in flight per
// session, hence one client.
const (
	ingestBatch   = 1000
	ingestEpoch   = 4096
	ingestWarmups = 9  // untimed batches: two epoch closes
	ingestChecks  = 17 // batches of the check session: four closes
	driftPhases   = 4
	driftChunk    = 32 * 1024 // events per generated drift trace chunk
	// checkSeed draws the check session's trace. It is the same for every
	// --seed, so placement_cost only changes when the solver's output
	// does: sparse per-node estimates make the cost of one 17-batch
	// session swing by several percent from one trace to the next.
	checkSeed = 0
)

type ingestBench struct {
	wire   encode.InstanceJSON
	upload []byte
	names  []string
	inst   *core.Instance
	timed  *driftTrace // warm-up and timed batches
	checks *driftTrace // the check session's batches
}

func (w *ingestBench) clients() int   { return 1 }
func (w *ingestBench) tailQ() float64 { return 0.95 }

// driftPhase is the demand of one drift phase: fixed per phase, with
// hotspots on different nodes in every phase. The seed only draws the
// events from these tables.
func driftPhase(n int) func(phase int) []core.Object {
	return func(phase int) []core.Object {
		rng := rand.New(rand.NewSource(int64(7919 * (phase + 1))))
		return workload.Generate(n, workload.Spec{
			Objects: objects, MeanRate: 3, WriteFraction: 0.25, ZipfS: 0.8,
			Hotspot: 0.6, HotspotNodes: 40,
		}, rng)
	}
}

// driftTrace is an unbounded seeded stream.Drift trace, generated one
// chunk at a time.
type driftTrace struct {
	n      int
	rng    *rand.Rand
	events []workload.Request
}

func newDriftTrace(n int, seed int64) *driftTrace {
	return &driftTrace{n: n, rng: rand.New(rand.NewSource(seed))}
}

// batch returns batch b, extending the trace as needed.
func (t *driftTrace) batch(b int) []workload.Request {
	for len(t.events) < (b+1)*ingestBatch {
		_, seq := stream.Drift(t.n, driftPhases, driftChunk, t.rng, driftPhase(t.n))
		t.events = append(t.events, seq...)
	}
	return t.events[b*ingestBatch : (b+1)*ingestBatch]
}

func (w *ingestBench) prepare(e *runEnv) error {
	g := gen.Grid(50, 50, gen.UnitWeights)
	n := g.N()
	srng := rand.New(rand.NewSource(41))
	storage := make([]float64, n)
	for v := range storage {
		storage[v] = 2 + srng.Float64()*6
	}
	// The instance holds the drift's average demand, which does not
	// depend on the event draws.
	avg, _ := stream.Drift(n, driftPhases, driftPhases, rand.New(rand.NewSource(0)), driftPhase(n))
	in, err := core.NewInstance(g, storage, avg)
	if err != nil {
		return err
	}
	w.wire = encode.InstanceJSONOf(in)
	if w.upload, err = uploadBody("ingest-epochs", w.wire); err != nil {
		return err
	}
	if w.inst, err = decoded(w.wire); err != nil {
		return err
	}
	for i := range w.inst.Objects {
		w.names = append(w.names, encode.ObjectName(&w.inst.Objects[i], i))
	}
	w.timed = newDriftTrace(n, e.opts.seed)
	w.checks = newDriftTrace(n, checkSeed)
	return nil
}

// batchBody is the sequenced POST events body of batch b of a trace.
func (w *ingestBench) batchBody(t *driftTrace, b int) ([]byte, error) {
	evs := t.batch(b)
	req := service.SessionEventsRequest{Events: make([]service.SessionEvent, len(evs)), Seq: int64(b + 1)}
	for i, r := range evs {
		req.Events[i] = service.SessionEvent{Obj: w.names[r.Obj], Node: r.V, Write: r.Write}
	}
	return json.Marshal(req)
}

type ingestDeployment struct {
	w        *ingestBench
	srv      *server
	cl       *client
	instance string
	session  string
	acked    int // batches acknowledged in the main session
}

func (w *ingestBench) deploy(e *runEnv, traced bool) (deployment, error) {
	dir, err := e.subdir("ingest")
	if err != nil {
		return nil, err
	}
	extra := []string{"-data-dir", dir}
	if traced {
		extra = append(extra, "-pprof")
	}
	srv, err := startServer(e.opts.bin, dir, extra...)
	if err != nil {
		return nil, err
	}
	d := &ingestDeployment{w: w, srv: srv, cl: newClient()}
	if err := d.warm(); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func (d *ingestDeployment) warm() error {
	out, err := d.cl.call("POST", d.srv.url+"/instances", d.w.upload)
	if err != nil {
		return err
	}
	var up service.UploadResponse
	if err := json.Unmarshal(out, &up); err != nil {
		return err
	}
	d.instance = up.ID
	if d.session, err = d.openSession(up.ID); err != nil {
		return err
	}
	for b := 0; b < ingestWarmups; b++ {
		if _, err := d.send(d.session, d.w.timed, b); err != nil {
			return err
		}
	}
	return nil
}

func (d *ingestDeployment) openSession(instanceID string) (string, error) {
	body, err := json.Marshal(service.SessionRequest{InstanceID: instanceID, Config: service.SessionConfig{Epoch: ingestEpoch}})
	if err != nil {
		return "", err
	}
	out, err := d.cl.call("POST", d.srv.url+"/v1/sessions", body)
	if err != nil {
		return "", err
	}
	var info service.SessionInfo
	if err := json.Unmarshal(out, &info); err != nil {
		return "", err
	}
	return info.SessionID, nil
}

// send posts batch b of a trace to a session and returns the latency,
// which excludes building the body.
func (d *ingestDeployment) send(session string, t *driftTrace, b int) (time.Duration, error) {
	body, err := d.w.batchBody(t, b)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	out, err := d.cl.call("POST", d.srv.url+"/v1/sessions/"+session+"/events", body)
	lat := time.Since(t0)
	if err != nil {
		return lat, err
	}
	var resp service.SessionEventsResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		return lat, err
	}
	if resp.Accepted != ingestBatch || resp.Deduplicated || resp.Seq != int64(b+1) {
		return lat, fmt.Errorf("batch %d: accepted %d, deduplicated %v, seq %d", b, resp.Accepted, resp.Deduplicated, resp.Seq)
	}
	return lat, nil
}

func (d *ingestDeployment) pids() []int { return []int{d.srv.pid()} }

func (d *ingestDeployment) urls() []string   { return []string{d.srv.url} }
func (d *ingestDeployment) control() *client { return d.cl }

func (d *ingestDeployment) op(_, k int) (time.Duration, error) {
	lat, err := d.send(d.session, d.w.timed, ingestWarmups+k)
	if err == nil {
		d.acked = ingestWarmups + k + 1
	}
	return lat, err
}

func (d *ingestDeployment) stop() {
	d.cl.close()
	d.srv.stop()
}

// replay feeds the first batches of the trace to an in-process
// stream.Engine configured like the server's session.
func (w *ingestBench) replay(t *driftTrace, batches int) (*stream.Engine, error) {
	eng := stream.New(w.inst, stream.Config{Epoch: ingestEpoch, Solve: core.Options{Parallel: maxProcs}})
	for b := 0; b < batches; b++ {
		for _, r := range t.batch(b) {
			if _, err := eng.Observe(r); err != nil {
				return nil, err
			}
		}
	}
	return eng, nil
}

// fingerprint is the externally visible session state: the copy sets
// of every placed object and the session's accounting.
func fingerprint(p service.SessionPlacementResponse) ([]byte, error) {
	return json.Marshal(struct {
		Placement encode.PlacementJSON
		Stats     service.SessionStats
	}{p.Placement, p.Stats})
}

// checkSession compares a server session with the in-process replay of
// its acknowledged batches and returns the placement's total cost.
func (d *ingestDeployment) checkSession(session string, t *driftTrace, batches int) (float64, error) {
	var got service.SessionPlacementResponse
	if err := d.cl.getJSON(d.srv.url+"/v1/sessions/"+session+"/placement", &got); err != nil {
		return 0, err
	}
	eng, err := d.w.replay(t, batches)
	if err != nil {
		return 0, err
	}
	p := eng.Placement()
	st := eng.Stats()
	want := service.SessionPlacementResponse{
		Placement: encode.PlacementJSON{Copies: map[string][]int{}},
		Stats: service.SessionStats{
			Events: st.Events, Epochs: st.Epochs, Resolves: st.Resolves,
			Moves: st.Moves, Rejected: st.Rejected,
			Transmission: st.Transmission, Storage: st.Storage,
			Migration: st.Migration, Total: st.Total(),
		},
	}
	for i, c := range p.Copies {
		if len(c) == 0 {
			return 0, fmt.Errorf("object %s never placed after %d batches", d.w.names[i], batches)
		}
		want.Placement.Copies[d.w.names[i]] = c
	}
	gf, err := fingerprint(got)
	if err != nil {
		return 0, err
	}
	wf, err := fingerprint(want)
	if err != nil {
		return 0, err
	}
	if string(gf) != string(wf) {
		return 0, fmt.Errorf("session %s after %d batches: fingerprint differs from in-process replay:\nserver  %.300s\nreplay  %.300s", session, batches, gf, wf)
	}
	total := d.w.inst.Cost(p).Total()
	if got.Breakdown == nil || got.Breakdown.Total != total {
		return 0, fmt.Errorf("session %s: cost %v, in-process %v", session, got.Breakdown, total)
	}
	return total, nil
}

// check verifies the timed session against a full replay, then streams
// the fixed check session (the first ingestChecks batches into a fresh
// session, drawn from checkSeed), whose final placement cost is the
// run's placement_cost.
func (d *ingestDeployment) check() (float64, error) {
	if _, err := d.checkSession(d.session, d.w.timed, d.acked); err != nil {
		return 0, err
	}
	sid, err := d.openSession(d.instance)
	if err != nil {
		return 0, err
	}
	for b := 0; b < ingestChecks; b++ {
		if _, err := d.send(sid, d.w.checks, b); err != nil {
			return 0, err
		}
	}
	return d.checkSession(sid, d.w.checks, ingestChecks)
}
