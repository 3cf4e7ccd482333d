package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// bench is one workload: seeded inputs, a deployment that serves them,
// and the closed-loop operation the clients repeat.
type bench interface {
	// prepare builds the seeded inputs; it is not part of set-up time.
	prepare(e *runEnv) error
	// deploy boots the servers, uploads, and runs the untimed warm-up
	// operations; all of it counts as set-up time.
	deploy(e *runEnv, traced bool) (deployment, error)
	// clients is the number of closed-loop clients.
	clients() int
	// tailQ is the fixed percentile reported as tail_ms: the highest
	// that leaves at least 10 samples beyond it even in a run that
	// completes 30% fewer operations than the reference figures.
	tailQ() float64
	// probe times each layer's public functions on the first operations'
	// inputs, after a traced run's timed phase.
	probe(p *probeEnv) error
}

// deployment is one booted, warmed system under test.
type deployment interface {
	// pids are the server processes, for CPU and peak-RSS accounting.
	pids() []int
	// urls are the servers' base URLs, for /statz and /debug/memz.
	urls() []string
	// control is the client that reads /statz and /debug/memz.
	control() *client
	// op runs timed operation k on client ci and returns its latency.
	op(ci, k int) (time.Duration, error)
	// check verifies the outputs against in-process solves, outside the
	// timed phase, and returns the placement cost of the check set.
	check() (float64, error)
	stop()
}

var workloads = map[string]func() bench{
	"whatif-sweep":  func() bench { return &whatifBench{} },
	"ingest-epochs": func() bench { return &ingestBench{} },
	"cold-cluster":  func() bench { return &coldBench{} },
}

// sample is one timed operation.
type sample struct {
	k   int
	lat time.Duration
	err error
}

// loopResult is the outcome of a timed phase.
type loopResult struct {
	samples []sample
	elapsed time.Duration
}

func (r loopResult) failed() int {
	n := 0
	for _, s := range r.samples {
		if s.err != nil {
			n++
		}
	}
	return n
}

// firstError returns the first failed operation's error, for the log.
func (r loopResult) firstError() error {
	for _, s := range r.samples {
		if s.err != nil {
			return fmt.Errorf("op %d: %w", s.k, s.err)
		}
	}
	return nil
}

// timedLoop runs clients closed loops until the deadline: each client
// sends its next operation only after the previous one completed, and
// operation numbers are handed out in the order they are sent.
func timedLoop(e *runEnv, clients int, op func(ci, k int) (time.Duration, error)) loopResult {
	var next atomic.Int64
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := e.deadline()
	wg.Add(clients)
	for ci := 0; ci < clients; ci++ {
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				k := int(next.Add(1) - 1)
				lat, err := op(ci, k)
				per[ci] = append(per[ci], sample{k: k, lat: lat, err: err})
			}
		}()
	}
	wg.Wait()
	res := loopResult{elapsed: time.Since(start)}
	for _, p := range per {
		res.samples = append(res.samples, p...)
	}
	sort.Slice(res.samples, func(a, b int) bool { return res.samples[a].k < res.samples[b].k })
	return res
}

// latenciesMS returns every operation's latency in milliseconds, sorted;
// a failed operation missed every limit and sorts last as +Inf.
func latenciesMS(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = math.Inf(1)
		if s.err == nil {
			out[i] = float64(s.lat) / float64(time.Millisecond)
		}
	}
	sort.Float64s(out)
	return out
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// beyond counts the samples strictly above the q-quantile's rank.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// finite replaces an infinite quantile (more failures than the rank) by
// the whole phase's length, the latest any operation could have ended.
func finite(v float64, r loopResult) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return float64(r.elapsed) / float64(time.Millisecond)
	}
	return v
}

// deployAll runs the set-ups, keeps the last deployment and returns
// every set-up's time in seconds.
func deployAll(e *runEnv, w bench, traced bool) (deployment, []float64, error) {
	var times []float64
	var d deployment
	for i := 0; i < setups; i++ {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		var err error
		if d, err = w.deploy(e, traced); err != nil {
			return nil, nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return d, times, nil
}

// measureRun is the untraced run: set-up, timed phase, checks, and the
// end-to-end metrics.
func measureRun(e *runEnv, w bench) (result, map[string]any, error, error) {
	if err := w.prepare(e); err != nil {
		return result{}, nil, nil, err
	}
	d, setupTimes, err := deployAll(e, w, false)
	if err != nil {
		return result{}, nil, nil, err
	}
	defer d.stop()
	pids := d.pids()
	cpu0, err := cpuMS(pids)
	if err != nil {
		return result{}, nil, nil, err
	}
	lr := timedLoop(e, w.clients(), d.op)
	cpu1, err := cpuMS(pids)
	if err != nil {
		return result{}, nil, nil, err
	}
	rss, err := peakRSSMB(pids)
	if err != nil {
		return result{}, nil, nil, err
	}
	cpus, err := cpuSets(pids)
	if err != nil {
		return result{}, nil, nil, err
	}
	cost, checkErr := d.check()
	if checkErr == nil && lr.failed() > 0 {
		checkErr = lr.firstError()
	}

	lat := latenciesMS(lr.samples)
	n := len(lr.samples)
	ok := n - lr.failed()
	q := w.tailQ()
	m := map[string]metricValue{
		"setup_s":              {median(setupTimes), "s"},
		"p50_ms":               {finite(quantile(lat, 0.5), lr), "ms"},
		"tail_ms":              {finite(quantile(lat, q), lr), "ms"},
		"throughput":           {float64(ok) / lr.elapsed.Seconds(), "ops/s"},
		"ok_frac":              {float64(ok) / float64(max(n, 1)), "ratio"},
		"placement_cost":       {cost, "cost"},
		"peak_rss_mb":          {rss, "MiB"},
		"server_cpu_ms_per_op": {(cpu1 - cpu0) / float64(max(n, 1)), "ms"},
	}
	meta := map[string]any{
		"samples":        n,
		"tail_quantile":  q,
		"tail_beyond":    beyond(n, q),
		"setup_s_each":   setupTimes,
		"timed_seconds":  lr.elapsed.Seconds(),
		"server_pids":    len(pids),
		"server_cpus":    cpus,
		"clients":        w.clients(),
		"failed_example": errString(lr.firstError()),
	}
	return result{Attempted: max(n, 1), Failed: lr.failed(), Metrics: m}, meta, checkErr, nil
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
