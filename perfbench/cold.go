package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"netplace/internal/cluster"
	"netplace/internal/core"
	"netplace/internal/encode"
	"netplace/internal/service"
)

// cold-cluster: two replicas booted by cluster.Harness with forwarding
// on; two clients each upload a fresh instance, solve it and delete it,
// always entering at the replica that does not own the instance.
const (
	coldWarmups = 2 // untimed cycles per set-up
	coldChecks  = 4 // timed operations 0..coldChecks-1 are checked
	coldNodes   = 10
)

// operation streams: every cycle's instance is derived from (stream, k),
// so warm-up, timed and check instances never share a hash.
const (
	streamTimed = iota
	streamWarm
)

type coldBench struct {
	wire encode.InstanceJSON
	seed int64
}

func (w *coldBench) clients() int   { return 2 }
func (w *coldBench) tailQ() float64 { return 0.85 }

func (w *coldBench) prepare(e *runEnv) error {
	w.wire = residentWire()
	w.seed = e.opts.seed
	return nil
}

// coldInput is one cycle's instance.
type coldInput struct {
	wire   encode.InstanceJSON
	upload []byte
	id     string
}

// input derives cycle k's instance: the resident instance with one
// object's reads perturbed, cycling through the objects so every seed
// solves the same mix.
func (w *coldBench) input(stream, k int) (coldInput, error) {
	rng := rand.New(rand.NewSource(w.seed*1_000_003 + int64(stream)*7919 + int64(k)))
	ij := w.wire
	ij.Objects = append([]encode.ObjectJSON(nil), w.wire.Objects...)
	obj := k % len(ij.Objects)
	ij.Objects[obj].Reads = perturbReads(ij.Objects[obj].Reads, rng, coldNodes)
	in, err := ij.Instance()
	if err != nil {
		return coldInput{}, err
	}
	body, err := uploadBody(fmt.Sprintf("cold-%d-%d", stream, k), ij)
	if err != nil {
		return coldInput{}, err
	}
	return coldInput{wire: ij, upload: body, id: service.InstanceIDFor(in)}, nil
}

type coldDeployment struct {
	w    *coldBench
	h    *cluster.Harness
	ring *cluster.Ring
	cl   []*client
	mu   sync.Mutex
	res  map[int]service.SolveResult // checked timed operations
	// uploads counts accepted uploads since boot; each must have been
	// pushed to the owner's ring successor exactly once.
	uploads atomic.Int64
}

func (w *coldBench) deploy(e *runEnv, traced bool) (deployment, error) {
	dir, err := e.subdir("cold")
	if err != nil {
		return nil, err
	}
	cfg := cluster.HarnessConfig{N: 2, BaseDir: dir, Binary: e.opts.bin}
	if traced {
		cfg.ExtraArgs = []string{"-pprof"}
	}
	h, err := cluster.NewHarness(cfg)
	if err != nil {
		return nil, err
	}
	if err := h.Start(); err != nil {
		return nil, err
	}
	d := &coldDeployment{
		w: w, h: h, ring: cluster.NewRingOf(0, h.URLs()...),
		cl: []*client{newClient(), newClient()}, res: map[int]service.SolveResult{},
	}
	for k := 0; k < coldWarmups; k++ {
		in, err := w.input(streamWarm, k)
		if err == nil {
			_, _, err = d.cycle(d.cl[k%2], in, d.entry(in.id))
		}
		if err != nil {
			d.stop()
			return nil, err
		}
	}
	return d, nil
}

// entry is the replica that does not own the instance id.
func (d *coldDeployment) entry(id string) string {
	owner := d.ring.Owner(id)
	for _, u := range d.h.URLs() {
		if u != owner {
			return u
		}
	}
	return owner
}

// cycle uploads, solves and deletes one instance through the given
// entry replica, returning the latency of the three requests.
func (d *coldDeployment) cycle(c *client, in coldInput, entry string) (time.Duration, service.SolveResult, error) {
	var res service.SolveResult
	t0 := time.Now()
	out, err := c.call("POST", entry+"/instances", in.upload)
	if err != nil {
		return time.Since(t0), res, err
	}
	var up service.UploadResponse
	if err := json.Unmarshal(out, &up); err != nil {
		return time.Since(t0), res, err
	}
	if up.ID != in.id || !up.Created {
		return time.Since(t0), res, fmt.Errorf("upload: id %s created %v, want new %s", up.ID, up.Created, in.id)
	}
	d.uploads.Add(1)
	base := entry + "/instances/" + url.PathEscape(in.id)
	out, err = c.call("POST", base+"/solve", []byte(`{}`))
	if err != nil {
		return time.Since(t0), res, err
	}
	if _, err := c.call("DELETE", base, nil); err != nil {
		return time.Since(t0), res, err
	}
	lat := time.Since(t0)
	if err := json.Unmarshal(out, &res); err != nil {
		return lat, res, err
	}
	if res.Cached || res.Shared || res.PeerCached {
		return lat, res, fmt.Errorf("solve of a fresh instance was served from a cache")
	}
	return lat, res, nil
}

func (d *coldDeployment) pids() []int {
	var out []int
	for _, u := range d.h.URLs() {
		out = append(out, childPIDs("-addr\x00"+u[len("http://"):]+"\x00")...)
	}
	return out
}

func (d *coldDeployment) urls() []string   { return d.h.URLs() }
func (d *coldDeployment) control() *client { return d.cl[0] }

func (d *coldDeployment) op(ci, k int) (time.Duration, error) {
	in, err := d.w.input(streamTimed, k)
	if err != nil {
		return 0, err
	}
	lat, res, err := d.cycle(d.cl[ci], in, d.entry(in.id))
	if err == nil && k < coldChecks {
		d.mu.Lock()
		d.res[k] = res
		d.mu.Unlock()
	}
	return lat, err
}

func (d *coldDeployment) stop() {
	for _, c := range d.cl {
		c.close()
	}
	d.h.Stop()
}

// check compares the first timed cycles' placements with an in-process
// core.Approximate on the same instance, running any cycle the timed
// phase did not reach, and then checks the replica pushes; the
// placement cost is the cycles' mean total.
func (d *coldDeployment) check() (float64, error) {
	sum := 0.0
	for k := 0; k < coldChecks; k++ {
		in, err := d.w.input(streamTimed, k)
		if err != nil {
			return 0, err
		}
		res, ok := d.res[k]
		if !ok {
			if _, res, err = d.cycle(d.cl[0], in, d.entry(in.id)); err != nil {
				return 0, err
			}
		}
		local, err := decoded(in.wire)
		if err != nil {
			return 0, err
		}
		want, total, err := expectPlacement(local, core.Approximate(local, core.Options{}))
		if err != nil {
			return 0, err
		}
		if string(placementBytes(res.Placement)) != string(want) {
			return 0, fmt.Errorf("cold op %d: placement differs from in-process core.Approximate", k)
		}
		if res.Breakdown.Total != total {
			return 0, fmt.Errorf("cold op %d: cost %v, in-process %v", k, res.Breakdown.Total, total)
		}
		sum += total
	}
	if err := d.checkPushes(); err != nil {
		return 0, err
	}
	return sum / coldChecks, nil
}

// checkPushes fails if any replica push or delete propagation failed, or
// if the replicas pushed a different number of snapshots than they
// accepted uploads: a push that silently failed would shorten the cycle
// and read as a gain. Pushes are synchronous within the upload, so the
// counters are final once every cycle has returned.
func (d *coldDeployment) checkPushes() error {
	var pushes, errs int64
	for _, u := range d.h.URLs() {
		var st service.Stats
		if err := d.cl[0].getJSON(u+"/statz", &st); err != nil {
			return err
		}
		pushes += st.ReplicaPushes
		errs += st.ReplicaPushErrors
	}
	if uploads := d.uploads.Load(); errs != 0 || pushes != uploads {
		return fmt.Errorf("replica pushes %d and push errors %d for %d uploads, want %d and 0", pushes, errs, uploads, uploads)
	}
	return nil
}
