package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"netplace/internal/core"
	"netplace/internal/encode"
	"netplace/internal/graph"
	"netplace/internal/metric"
	"netplace/internal/service"
	"netplace/internal/stream"
)

// rowSources is how many seeded sources graph.sssp_row_ms averages over.
const rowSources = 16

// rows times graph.Scanner.RowInto, a full single-source shortest-path
// row, from seeded sources of g.
func (p *probeEnv) rows(g *graph.Graph) {
	sc := graph.NewScanner(g)
	row := make([]float64, g.N())
	rng := rand.New(rand.NewSource(p.e.opts.seed))
	for i := 0; i < rowSources; i++ {
		src := rng.Intn(g.N())
		_, ms := p.tr.time("graph.sssp_row", -1, 0, func() { row = sc.RowInto(src, row) })
		p.add("graph.sssp_row_ms", ms)
	}
}

// solveObject times core.ApproximateObject on object i of a warm
// instance, and splits it into phases by re-running it with phases
// skipped: phase 1 is the run without phases 2 and 3 minus the storage
// radii, phase 2 and phase 3 are the differences the skipped phase
// makes. The write radii are timed over phase 3's candidates, the copies
// that survive phase 2.
func (p *probeEnv) solveObject(in *core.Instance, i, op, parent int, opt core.Options) ([]int, float64) {
	obj := &in.Objects[i]
	var copies, cands []int
	id, full := p.tr.time("core.solve_object", op, parent, func() { copies = core.ApproximateObject(in, obj, opt) })
	o23, o3 := opt, opt
	o23.SkipPhase2, o23.SkipPhase3 = true, true
	o3.SkipPhase3 = true
	_, skip23 := p.tr.time("core.solve_object.skip_phase2_3", op, id, func() { core.ApproximateObject(in, obj, o23) })
	_, skip3 := p.tr.time("core.solve_object.skip_phase3", op, id, func() { cands = core.ApproximateObject(in, obj, o3) })
	ws := metric.NewWorkspace()
	o, req := in.Metric(), obj.Requests()
	_, radii := p.tr.time("metric.storage_radii", op, id, func() { ws.ComputeStorageRadii(o, req, in.Storage) })
	w := obj.TotalWrites()
	_, wr := p.tr.time("metric.write_radius", op, id, func() {
		for _, v := range cands {
			ws.WriteRadius(o, req, w, v)
		}
	})
	p.add("core.solve_object_ms", full)
	p.add("metric.storage_radii_ms", radii)
	p.add("facility.phase1_ms", skip23-radii)
	p.add("core.phase2_ms", skip3-skip23)
	p.add("core.phase3_ms", full-skip3)
	p.add("metric.write_radius_ms", wr)
	p.add("metric.write_radius_calls", float64(len(cands)))
	p.add("core.copies_per_object", float64(len(copies)))
	return copies, full
}

// solveAll times core.Approximate on a fresh instance and again on the
// now warm one; the difference is the cold oracle's cost.
func (p *probeEnv) solveAll(in *core.Instance, op, parent int, opt core.Options) (core.Placement, float64) {
	var pl core.Placement
	_, cold := p.tr.time("core.solve_all.cold", op, parent, func() { pl = core.Approximate(in, opt) })
	_, warm := p.tr.time("core.solve_all", op, parent, func() { core.Approximate(in, opt) })
	p.add("core.solve_all_ms", warm)
	p.add("metric.oracle_cold_ms", cold-warm)
	return pl, cold
}

// placementJSON times the response encoding of a solve result.
func (p *probeEnv) placementJSON(in *core.Instance, pl core.Placement, op, parent int) (float64, error) {
	var err error
	_, ms := p.tr.time("encode.placement_json", op, parent, func() {
		var pj encode.PlacementJSON
		if pj, err = encode.PlacementJSONOf(in, pl); err == nil {
			_, err = json.Marshal(service.SolveResult{Placement: pj})
		}
	})
	p.add("encode.placement_json_ms", ms)
	return ms, err
}

// inProcess opens an in-process server and uploads an instance to it.
func inProcess(cfg service.Config, upload []byte) (*service.Server, string, error) {
	srv, err := service.Open(cfg)
	if err != nil {
		return nil, "", err
	}
	code, body, _ := handlerCall(srv.Handler(), "POST", "/instances", upload)
	var up service.UploadResponse
	if code/100 != 2 || json.Unmarshal(body, &up) != nil {
		srv.Close()
		return nil, "", fmt.Errorf("in-process upload: HTTP %d: %.200s", code, body)
	}
	return srv, up.ID, nil
}

// mustOK turns a non-2xx in-process response into an error.
func mustOK(code int, body []byte, what string) error {
	if code/100 != 2 {
		return fmt.Errorf("in-process %s: HTTP %d: %.200s", what, code, body)
	}
	return nil
}

func (w *whatifBench) probe(p *probeEnv) error {
	base, err := decoded(w.wire)
	if err != nil {
		return err
	}
	opt := core.Options{Workers: 1}
	bp, _ := p.solveAll(base, -1, 0, opt)
	p.rows(base.G)
	srv, id, err := inProcess(service.Config{}, w.upload)
	if err != nil {
		return err
	}
	defer srv.Close()
	h, path := srv.Handler(), "/instances/"+id+"/whatif"
	if code, body, _ := handlerCall(h, "POST", path, w.pool[0].body); code/100 != 2 { // base solve
		return mustOK(code, body, "what-if")
	}
	var splits []opSplit
	for k := 0; k < p.probed(); k++ {
		sc := w.pool[w.poolIndex(k)]
		var code int
		var body []byte
		hid, handler := p.tr.time("service.handler", k, p.opID(k), func() { code, body, _ = handlerCall(h, "POST", path, sc.body) })
		if err := mustOK(code, body, "what-if"); err != nil {
			return err
		}
		_, dec := p.tr.time("encode.decode", k, hid, func() { err = json.Unmarshal(sc.body, &service.WhatIfRequest{}) })
		if err != nil {
			return err
		}
		p.add("encode.decode_ms", dec)
		patched := append([]core.Object(nil), base.Objects...)
		patched[sc.obj].Reads = sc.reads
		scen, err := base.WithObjects(patched)
		if err != nil {
			return err
		}
		copies, solve := p.solveObject(scen, sc.obj, k, hid, opt)
		_, cost := p.tr.time("core.cost", k, hid, func() { scen.ObjectCostRawParallel(&scen.Objects[sc.obj], copies, 0) })
		p.add("core.cost_ms", cost)
		pl := core.Placement{Copies: append([][]int(nil), bp.Copies...)}
		pl.Copies[sc.obj] = copies
		pj, err := p.placementJSON(scen, pl, k, hid)
		if err != nil {
			return err
		}
		splits = append(splits, opSplit{k: k, handler: handler, children: dec + solve + cost + pj})
	}
	p.finishSplit(splits)
	return nil
}

// coldForwardPairs is how many owner/non-owner cycle pairs price the
// forwarded hop: one per object, since the solve cost differs by object.
const coldForwardPairs = objects

const streamForward = streamWarm + 1

func (w *coldBench) probe(p *probeEnv) error {
	dir, err := p.e.subdir("probe")
	if err != nil {
		return err
	}
	// The server runs Config.Workers solves at once, each with
	// GOMAXPROCS/Workers object workers: one, by default.
	opt := core.Options{Workers: 1}
	var splits []opSplit
	for k := 0; k < min(3, p.probed()); k++ {
		in, err := w.input(streamTimed, k)
		if err != nil {
			return err
		}
		srv, err := service.Open(service.Config{DataDir: filepath.Join(dir, fmt.Sprint(k))})
		if err != nil {
			return err
		}
		// The cycle's three requests each get a span under one handler
		// span, so the span file shows which of them carries the time.
		calls := []struct {
			name, method, path string
			body               []byte
		}{
			{"service.handler.upload", "POST", "/instances", in.upload},
			{"service.handler.solve", "POST", "/instances/" + in.id + "/solve", []byte(`{}`)},
			{"service.handler.delete", "DELETE", "/instances/" + in.id, nil},
		}
		var marks []time.Time
		start := time.Now()
		for _, c := range calls {
			code, out, _ := handlerCall(srv.Handler(), c.method, c.path, c.body)
			marks = append(marks, time.Now())
			if err = mustOK(code, out, c.name); err != nil {
				break
			}
		}
		srv.Close()
		if err != nil {
			return err
		}
		hid := p.tr.record("service.handler", k, p.opID(k), start, marks[2])
		handler := float64(marks[2].Sub(start)) / 1e6
		for i, c := range calls {
			from := start
			if i > 0 {
				from = marks[i-1]
			}
			p.tr.record(c.name, k, hid, from, marks[i])
		}
		raw, err := json.Marshal(in.wire)
		if err != nil {
			return err
		}
		var local *core.Instance
		_, dec := p.tr.time("encode.decode", k, hid, func() { local, err = encode.ReadInstance(bytes.NewReader(raw)) })
		if err != nil {
			return err
		}
		p.add("encode.decode_ms", dec)
		// The forwarding proxy and the owner each hash the upload.
		_, hash := p.tr.time("encode.hash", k, hid, func() { encode.HashInstance(local) })
		p.add("encode.hash_ms", hash)
		pl, solve := p.solveAll(local, k, hid, opt)
		_, cost := p.tr.time("core.cost", k, hid, func() { local.Cost(pl) })
		p.add("core.cost_ms", cost)
		pj, err := p.placementJSON(local, pl, k, hid)
		if err != nil {
			return err
		}
		splits = append(splits, opSplit{k: k, handler: handler, children: dec + hash + solve + cost + pj})
		if k == 0 {
			for i := range local.Objects {
				p.solveObject(local, i, k, hid, opt)
			}
			p.rows(local.G)
		}
	}
	p.finishSplit(splits)
	return w.probeForward(p)
}

// probeForward runs the same kind of cold cycle entered at the owner and
// at the non-owner; cluster.forward_ms is the difference of the means.
func (w *coldBench) probeForward(p *probeEnv) error {
	d := p.d.(*coldDeployment)
	var own, fwd mean
	for j := 0; j < coldForwardPairs; j++ {
		for _, forwarded := range []bool{false, true} {
			k := 2 * j * objects // object j mod objects, a fresh draw per cycle
			if forwarded {
				k += objects
			}
			in, err := w.input(streamForward, k+j)
			if err != nil {
				return err
			}
			entry, name := d.ring.Owner(in.id), "cluster.cycle_owner"
			if forwarded {
				entry, name = d.entry(in.id), "cluster.cycle_forwarded"
			}
			lat, _, err := d.cycle(d.cl[0], in, entry)
			if err != nil {
				return err
			}
			end := time.Now()
			p.tr.record(name, -1, 0, end.Add(-lat), end)
			if forwarded {
				fwd.add(float64(lat) / 1e6)
			} else {
				own.add(float64(lat) / 1e6)
			}
		}
	}
	p.out["cluster.forward_ms"] = fwd.get() - own.get()
	return nil
}

// sessionFiles sums the WAL bytes of a durable server's sessions and
// returns the largest session snapshot.
func sessionFiles(dataDir string) (wal, snap int64) {
	entries, _ := os.ReadDir(filepath.Join(dataDir, "sessions"))
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			continue
		}
		switch name := e.Name(); {
		case strings.Contains(name, ".wal."):
			wal += info.Size()
		case strings.HasSuffix(name, ".snap.json"):
			snap = max(snap, info.Size())
		}
	}
	return wal, snap
}

// ingestSession opens an in-process server (durable when dataDir is set)
// with the benchmark's session.
func (w *ingestBench) ingestSession(dataDir string) (*service.Server, string, error) {
	srv, id, err := inProcess(service.Config{DataDir: dataDir}, w.upload)
	if err != nil {
		return nil, "", err
	}
	body, err := json.Marshal(service.SessionRequest{InstanceID: id, Config: service.SessionConfig{Epoch: ingestEpoch}})
	if err != nil {
		srv.Close()
		return nil, "", err
	}
	code, out, _ := handlerCall(srv.Handler(), "POST", "/v1/sessions", body)
	var info service.SessionInfo
	if err := mustOK(code, out, "session open"); err != nil {
		srv.Close()
		return nil, "", err
	}
	if err := json.Unmarshal(out, &info); err != nil {
		srv.Close()
		return nil, "", err
	}
	return srv, info.SessionID, nil
}

// probe replays the warm-up and the first timed batches in lockstep
// through an in-memory server, a durable server and a bare
// stream.Engine, so each layer of a batch is timed on the same state.
func (w *ingestBench) probe(p *probeEnv) error {
	dir, err := p.e.subdir("probe")
	if err != nil {
		return err
	}
	mem, memSID, err := w.ingestSession("")
	if err != nil {
		return err
	}
	defer mem.Close()
	dur, durSID, err := w.ingestSession(dir)
	if err != nil {
		return err
	}
	defer dur.Close()
	eng := stream.New(w.inst, stream.Config{Epoch: ingestEpoch})
	var observe mean
	var splits []opSplit
	for b := 0; b < ingestWarmups+p.probed(); b++ {
		k := b - ingestWarmups // operation number; negative for warm-up batches
		body, err := w.batchBody(w.timed, b)
		if err != nil {
			return err
		}
		code, out, memMS := handlerCall(mem.Handler(), "POST", "/v1/sessions/"+memSID+"/events", body)
		if err := mustOK(code, out, "events"); err != nil {
			return err
		}
		wal0, _ := sessionFiles(dir)
		parent := 0
		if k >= 0 {
			parent = p.opID(k)
		}
		hid, durMS := p.tr.time("service.handler", k, parent, func() {
			code, out, _ = handlerCall(dur.Handler(), "POST", "/v1/sessions/"+durSID+"/events", body)
		})
		if err := mustOK(code, out, "events"); err != nil {
			return err
		}
		wal1, snap := sessionFiles(dir)
		_, dec := p.tr.time("encode.decode", k, hid, func() { err = json.Unmarshal(body, &service.SessionEventsRequest{}) })
		if err != nil {
			return err
		}
		closed := false
		_, obs := p.tr.time("stream.observe_batch", k, hid, func() {
			for _, r := range w.timed.batch(b) {
				t0 := time.Now()
				rep, oerr := eng.Observe(r)
				t1 := time.Now()
				if oerr != nil {
					err = oerr
					return
				}
				if rep != nil {
					closed = true
					p.tr.record("stream.epoch_close", k, hid, t0, t1)
					p.add("stream.epoch_close_ms", float64(t1.Sub(t0))/1e6)
				} else {
					observe.add(float64(t1.Sub(t0)) / 1e3)
				}
			}
		})
		if err != nil {
			return err
		}
		if closed {
			p.add("service.snapshot_kb", float64(snap)/1024)
		} else {
			p.add("service.wal_bytes_per_event", float64(wal1-wal0)/ingestBatch)
			p.add("service.wal_append_ms", durMS-float64(memMS)/1e6)
		}
		if k >= 0 {
			p.add("encode.decode_ms", dec)
			walMS := durMS - float64(memMS)/1e6
			splits = append(splits, opSplit{k: k, handler: durMS, children: dec + obs + walMS})
		}
	}
	p.out["stream.observe_us"] = observe.get()
	p.finishSplit(splits)
	// The epoch close re-solves objects of the session's instance; the
	// solver layers are timed on its average demand.
	for i := range w.inst.Objects {
		p.solveObject(w.inst, i, -1, 0, core.Options{})
	}
	p.rows(w.inst.G)
	return nil
}
