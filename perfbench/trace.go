package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// The traced run replays the untraced run's seeded operations against
// servers started with -pprof, wraps a span around every operation, and
// then times the public functions of each layer from outside on the
// first operations' inputs. Spans are kept in memory and written to a
// JSON-lines file when the run ends. Layer spans are replays: a child
// runs after its parent, not inside it, so a parent's self time is its
// duration minus its children's durations.

// span is one timed interval.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0: a root span
	Op     int     `json:"op"`     // operation number; -1 for run-level probes
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"` // since the traced run began
	End    float64 `json:"end_ms"`
}

type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// record adds a finished span and returns its id.
func (t *tracer) record(name string, op, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: float64(start.Sub(t.t0)) / 1e6, End: float64(end.Sub(t.t0)) / 1e6,
	})
	return id
}

// time runs fn inside a span and returns the span id and its length in
// milliseconds.
func (t *tracer) time(name string, op, parent int, fn func()) (int, float64) {
	start := time.Now()
	fn()
	end := time.Now()
	return t.record(name, op, parent, start, end), float64(end.Sub(start)) / 1e6
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// opSpan returns the id of operation k's root span, or 0.
func (t *tracer) opSpan(k int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == "op" && s.Op == k {
			return s.ID
		}
	}
	return 0
}

// layerUnits lists every per-layer metric with its unit, in the order of
// METRICS.md. A traced run reports all of them; a layer the workload
// does not reach reads 0.
var layerUnits = []struct{ name, unit string }{
	{"graph.sssp_row_ms", "ms"},
	{"metric.storage_radii_ms", "ms"},
	{"metric.write_radius_ms", "ms"},
	{"metric.write_radius_calls", "count"},
	{"metric.oracle_cold_ms", "ms"},
	{"facility.phase1_ms", "ms"},
	{"core.solve_object_ms", "ms"},
	{"core.phase2_ms", "ms"},
	{"core.phase3_ms", "ms"},
	{"core.solve_all_ms", "ms"},
	{"core.cost_ms", "ms"},
	{"core.copies_per_object", "count"},
	{"stream.observe_us", "us"},
	{"stream.epoch_close_ms", "ms"},
	{"stream.resolves_per_epoch", "count"},
	{"stream.moves_per_epoch", "count"},
	{"encode.request_kb", "KiB"},
	{"encode.response_kb", "KiB"},
	{"encode.decode_ms", "ms"},
	{"encode.hash_ms", "ms"},
	{"encode.placement_json_ms", "ms"},
	{"service.handler_ms", "ms"},
	{"service.transport_ms", "ms"},
	{"service.wal_append_ms", "ms"},
	{"service.wal_bytes_per_event", "bytes"},
	{"service.snapshot_kb", "KiB"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.objects_resolved_per_op", "count"},
	{"service.queue_high_water", "count"},
	{"service.alloc_kb_per_op", "KiB"},
	{"service.gc_cycles_per_op", "count"},
	{"cluster.forward_ms", "ms"},
	{"cluster.replica_pushes_per_op", "count"},
	{"trace.unattributed_ms", "ms"},
}

// traceSample is how many leading operations the layer probes replay.
const traceSample = 8

// probeEnv carries a traced run's state into a workload's probes.
type probeEnv struct {
	e   *runEnv
	tr  *tracer
	d   deployment
	lr  loopResult
	out map[string]float64
	acc map[string]*mean // per-sample values averaged into out
}

// add records one sample of a metric that is reported as a mean.
func (p *probeEnv) add(name string, v float64) {
	if p.acc[name] == nil {
		p.acc[name] = &mean{}
	}
	p.acc[name].add(v)
}

// probed is how many leading operations the probes replay.
func (p *probeEnv) probed() int { return min(traceSample, len(p.lr.samples)) }

// opID is the span id of operation k, the parent of its layer spans.
func (p *probeEnv) opID(k int) int { return p.tr.opSpan(k) }

// mean accumulates values for one metric.
type mean struct{ sum, n float64 }

func (m *mean) add(v float64) { m.sum += v; m.n++ }
func (m *mean) get() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / m.n
}

// serverSnap is one server's /statz and /debug/memz at one instant.
type serverSnap struct {
	stats map[string]any
	mem   map[string]any
}

func (s serverSnap) num(m map[string]any, k string) float64 {
	v, _ := m[k].(float64)
	return v
}

func scrape(c *client, urls []string) ([]serverSnap, error) {
	var out []serverSnap
	for _, u := range urls {
		var s serverSnap
		if err := c.getJSON(u+"/statz", &s.stats); err != nil {
			return nil, err
		}
		if err := c.getJSON(u+"/debug/memz", &s.mem); err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// delta sums a /statz (or /debug/memz) counter's growth over servers.
func delta(before, after []serverSnap, mem bool, key string) float64 {
	d := 0.0
	for i := range after {
		a, b := after[i].stats, before[i].stats
		if mem {
			a, b = after[i].mem, before[i].mem
		}
		d += after[i].num(a, key) - before[i].num(b, key)
	}
	return d
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traceRun is the traced run: one set-up, the timed phase with a span per
// operation, the output checks, the counters, and the layer probes.
func traceRun(e *runEnv, w bench) (result, map[string]any, error, error) {
	if err := w.prepare(e); err != nil {
		return result{}, nil, nil, err
	}
	tr := &tracer{t0: time.Now()}
	d, err := w.deploy(e, true)
	if err != nil {
		return result{}, nil, nil, err
	}
	defer d.stop()
	before, err := scrape(d.control(), d.urls())
	if err != nil {
		return result{}, nil, nil, err
	}
	out0, in0 := traffic.out.Load(), traffic.in.Load()
	lr := timedLoop(e, w.clients(), func(ci, k int) (time.Duration, error) {
		lat, err := d.op(ci, k)
		end := time.Now()
		tr.record("op", k, 0, end.Add(-lat), end)
		return lat, err
	})
	ops := float64(max(len(lr.samples), 1))
	bytesOut, bytesIn := traffic.out.Load()-out0, traffic.in.Load()-in0
	after, err := scrape(d.control(), d.urls())
	if err != nil {
		return result{}, nil, nil, err
	}
	_, checkErr := d.check()
	if checkErr == nil && lr.failed() > 0 {
		checkErr = lr.firstError()
	}

	pe := &probeEnv{e: e, tr: tr, d: d, lr: lr, out: map[string]float64{}, acc: map[string]*mean{}}
	hits, misses := delta(before, after, false, "cache_hits"), delta(before, after, false, "cache_misses")
	pe.out["service.cache_hit_ratio"] = ratio(hits, hits+misses)
	pe.out["service.objects_resolved_per_op"] = delta(before, after, false, "objects_resolved") / ops
	for _, s := range after {
		pe.out["service.queue_high_water"] = max(pe.out["service.queue_high_water"], s.num(s.stats, "queue_high_water"))
	}
	epochs := delta(before, after, false, "session_epochs")
	pe.out["stream.resolves_per_epoch"] = ratio(delta(before, after, false, "session_resolves"), epochs)
	pe.out["stream.moves_per_epoch"] = ratio(delta(before, after, false, "session_moves"), epochs)
	pe.out["service.alloc_kb_per_op"] = delta(before, after, true, "total_alloc_bytes") / 1024 / ops
	pe.out["service.gc_cycles_per_op"] = delta(before, after, true, "gc_cycles") / ops
	pe.out["cluster.replica_pushes_per_op"] = delta(before, after, false, "replica_pushes") / ops
	pe.out["encode.request_kb"] = float64(bytesOut) / 1024 / ops
	pe.out["encode.response_kb"] = float64(bytesIn) / 1024 / ops
	if err := w.probe(pe); err != nil {
		return result{}, nil, nil, fmt.Errorf("layer probes: %w", err)
	}
	for k, v := range pe.acc {
		pe.out[k] = v.get()
	}

	spanFile := filepath.Join(e.opts.spans, fmt.Sprintf("%s-seed%d.jsonl", e.opts.workload, e.opts.seed))
	if err := tr.write(spanFile); err != nil {
		return result{}, nil, nil, err
	}
	m := map[string]metricValue{}
	var unknown []string
	for _, l := range layerUnits {
		m[l.name] = metricValue{Value: pe.out[l.name], Unit: l.unit}
	}
	for k := range pe.out {
		if _, ok := m[k]; !ok {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return result{}, nil, nil, fmt.Errorf("probes reported unlisted metrics: %s", strings.Join(unknown, ", "))
	}
	meta := map[string]any{
		"samples":      len(lr.samples),
		"span_file":    spanFile,
		"spans":        len(tr.spans),
		"probed_ops":   min(traceSample, len(lr.samples)),
		"clients":      w.clients(),
		"statz_epochs": epochs,
	}
	return result{Attempted: max(len(lr.samples), 1), Failed: lr.failed(), Metrics: m}, meta, checkErr, nil
}

// handlerCall times one request through an in-process server's handler.
func handlerCall(h http.Handler, method, path string, body []byte) (int, []byte, time.Duration) {
	req := httptest.NewRequest(method, path, strings.NewReader(string(body)))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	start := time.Now()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes(), time.Since(start)
}

// opSplit is one probed operation's handler time and the part of it
// its measured children explain.
type opSplit struct {
	k        int
	handler  float64 // in-process handler ms
	children float64 // sum of the handler's direct child spans, ms
}

// finishSplit derives service.transport_ms (client latency of operation
// k minus the in-process handler time of the same request) and
// trace.unattributed_ms (handler time its children do not explain).
func (p *probeEnv) finishSplit(splits []opSplit) {
	var tr, handler, un mean
	for _, s := range splits {
		handler.add(s.handler)
		un.add(s.handler - s.children)
		if s.k < len(p.lr.samples) && p.lr.samples[s.k].err == nil {
			tr.add(float64(p.lr.samples[s.k].lat)/1e6 - s.handler)
		}
	}
	p.out["service.handler_ms"] = handler.get()
	p.out["service.transport_ms"] = tr.get()
	p.out["trace.unattributed_ms"] = un.get()
}
