package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"netplace/internal/core"
	"netplace/internal/encode"
	"netplace/internal/service"
)

// whatif-sweep: one in-memory netplaced serving the resident instance;
// two clients POST single-object demand-patch scenarios, so every
// request re-solves exactly one object on the warm solver path.
const (
	whatifVariants = 4  // scenarios per object in the pool
	whatifNodes    = 40 // nodes whose reads a patch raises
	whatifWarmups  = 8  // untimed scenarios after the base solve
)

type whatifScenario struct {
	obj   int
	reads []int64
	body  []byte // POST /instances/{id}/whatif body
}

type whatifBench struct {
	wire   encode.InstanceJSON
	upload []byte
	pool   []whatifScenario
	order  []int // seeded order in which operations draw the pool
}

func (w *whatifBench) clients() int        { return 2 }
func (w *whatifBench) tailQ() float64      { return 0.98 }
func (w *whatifBench) poolIndex(k int) int { return w.order[k%len(w.order)] }

func (w *whatifBench) prepare(e *runEnv) error {
	w.wire = residentWire()
	var err error
	if w.upload, err = uploadBody("whatif-sweep", w.wire); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(e.opts.seed))
	// Every object appears equally often, so the per-object solve cost
	// mix is the same for every seed.
	for v := 0; v < whatifVariants; v++ {
		for i, o := range w.wire.Objects {
			reads := perturbReads(o.Reads, rng, whatifNodes)
			req := service.WhatIfRequest{Scenarios: []service.Scenario{{
				Label:   fmt.Sprintf("%s-v%d", o.Name, v),
				Objects: []service.ObjectPatch{{Name: o.Name, Reads: reads}},
			}}}
			body, err := json.Marshal(req)
			if err != nil {
				return err
			}
			w.pool = append(w.pool, whatifScenario{obj: i, reads: reads, body: body})
		}
	}
	w.order = rng.Perm(len(w.pool))
	return nil
}

type whatifDeployment struct {
	w       *whatifBench
	srv     *server
	cl      []*client
	id      string
	mu      sync.Mutex
	results map[int][]byte // op number -> response body
}

func (w *whatifBench) deploy(e *runEnv, traced bool) (deployment, error) {
	dir, err := e.subdir("whatif")
	if err != nil {
		return nil, err
	}
	var extra []string
	if traced {
		extra = append(extra, "-pprof")
	}
	srv, err := startServer(e.opts.bin, dir, extra...)
	if err != nil {
		return nil, err
	}
	d := &whatifDeployment{w: w, srv: srv, cl: []*client{newClient(), newClient()}, results: map[int][]byte{}}
	if err := d.warm(); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// warm uploads the instance and runs the untimed scenarios; the first
// one also computes and caches the base solve.
func (d *whatifDeployment) warm() error {
	out, err := d.cl[0].call("POST", d.srv.url+"/instances", d.w.upload)
	if err != nil {
		return err
	}
	var up service.UploadResponse
	if err := json.Unmarshal(out, &up); err != nil {
		return err
	}
	d.id = up.ID
	for i := 0; i < whatifWarmups; i++ {
		sc := d.w.pool[i%len(d.w.pool)]
		if _, err := d.cl[i%2].call("POST", d.url(), sc.body); err != nil {
			return err
		}
	}
	return nil
}

func (d *whatifDeployment) url() string { return d.srv.url + "/instances/" + d.id + "/whatif" }

func (d *whatifDeployment) pids() []int { return []int{d.srv.pid()} }

func (d *whatifDeployment) urls() []string   { return []string{d.srv.url} }
func (d *whatifDeployment) control() *client { return d.cl[0] }

func (d *whatifDeployment) op(ci, k int) (time.Duration, error) {
	sc := d.w.pool[d.w.poolIndex(k)]
	t0 := time.Now()
	out, err := d.cl[ci].call("POST", d.url(), sc.body)
	lat := time.Since(t0)
	if err != nil {
		return lat, err
	}
	d.mu.Lock()
	d.results[k] = out
	d.mu.Unlock()
	return lat, nil
}

func (d *whatifDeployment) stop() {
	for _, c := range d.cl {
		c.close()
	}
	d.srv.stop()
}

// whatifExpect is the in-process answer to one pool scenario.
type whatifExpect struct {
	placement []byte
	total     float64
}

// expect solves every pool scenario in process: the base placement by
// core.Approximate, the patched object by core.ApproximateObject on the
// patched instance, exactly as the incremental path splices them.
func (w *whatifBench) expect() ([]whatifExpect, error) {
	base, err := decoded(w.wire)
	if err != nil {
		return nil, err
	}
	opt := core.Options{Workers: 1}
	bp := core.Approximate(base, opt)
	out := make([]whatifExpect, len(w.pool))
	for i, sc := range w.pool {
		patched := append([]core.Object(nil), base.Objects...)
		patched[sc.obj].Reads = sc.reads
		scen, err := base.WithObjects(patched)
		if err != nil {
			return nil, err
		}
		copies := core.ApproximateObject(scen, &scen.Objects[sc.obj], opt)
		if err := checkProper(scen, &scen.Objects[sc.obj], copies); err != nil {
			return nil, fmt.Errorf("scenario %d: %w", i, err)
		}
		p := core.Placement{Copies: append([][]int(nil), bp.Copies...)}
		p.Copies[sc.obj] = copies
		if out[i].placement, out[i].total, err = expectPlacement(scen, p); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// check compares every timed response with the in-process answer to its
// scenario; the placement cost is the mean total over the pool.
func (d *whatifDeployment) check() (float64, error) {
	want, err := d.w.expect()
	if err != nil {
		return 0, err
	}
	for k, body := range d.results {
		if err := checkWhatif(body, want[d.w.poolIndex(k)]); err != nil {
			return 0, fmt.Errorf("what-if op %d: %w", k, err)
		}
	}
	sum := 0.0
	for _, x := range want {
		sum += x.total
	}
	return sum / float64(len(want)), nil
}

func checkWhatif(body []byte, want whatifExpect) error {
	var resp service.WhatIfResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if len(resp.Results) != 1 || resp.Results[0].Result == nil {
		return fmt.Errorf("want one result, got %.200s", body)
	}
	r := resp.Results[0].Result
	if !r.Incremental || r.ResolvedObjects != 1 {
		return fmt.Errorf("incremental=%v resolved=%d, want one re-solved object", r.Incremental, r.ResolvedObjects)
	}
	if got := placementBytes(r.Placement); string(got) != string(want.placement) {
		return fmt.Errorf("placement differs from in-process solve")
	}
	if r.Breakdown.Total != want.total {
		return fmt.Errorf("cost %v, in-process %v", r.Breakdown.Total, want.total)
	}
	return nil
}
