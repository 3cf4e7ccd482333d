// Package online implements a dynamic (online) data management strategy in
// the spirit of the paper's related work (Awerbuch–Bartal–Fiat; Maggs et
// al.'s dynamic tree strategies): requests arrive one by one with no
// knowledge of future frequencies, and the strategy adapts the copy set by
// replicating toward read traffic and invalidating replicas that writes
// make expensive.
//
// The paper itself only treats the static problem; this package exists to
// quantify, in the same cost model, how much the static algorithm's
// knowledge of frequencies is worth (experiment E13). Costs are accounted
// exactly as in the static model, with one necessary adaptation: a replica
// held for only part of the sequence rents its storage pro rata
// (fee * holding-time / sequence-length), so a strategy that holds a copy
// throughout pays exactly the static fee.
package online

import (
	"math"

	"netplace/internal/core"
	"netplace/internal/metric"
	"netplace/internal/workload"
)

// Config tunes the counter-based strategy.
type Config struct {
	// ReplicateFactor scales the replication threshold: a copy appears at v
	// once the read traffic from v has paid ReplicateFactor times the
	// storage fee cs(v). The classic count-to-threshold rule; 0 selects 2.
	ReplicateFactor float64
	// DropIdle drops a replica that served no read between two consecutive
	// writes (keeping at least one copy). Enabled by default semantics:
	// the zero Config uses true via DefaultConfig.
	DropIdle bool
}

// DefaultConfig returns the evaluation defaults.
func DefaultConfig() Config { return Config{ReplicateFactor: 2, DropIdle: true} }

// Stats aggregates an online run.
type Stats struct {
	Transmission float64 // read/write access + multicast fees paid
	Storage      float64 // pro-rata storage rent
	Replications int     // copies created
	Drops        int     // copies invalidated
	FinalCopies  []int   // copy set at the end of the sequence
}

// Total returns transmission plus storage cost.
func (s Stats) Total() float64 { return s.Transmission + s.Storage }

// state tracks one object's copy set.
type state struct {
	has   []bool
	count int
	gain  []float64 // accumulated read-distance savings per node
	idle  []bool    // replica saw no read since the last write
}

// Checkpoint is a cumulative snapshot of an online run after Events
// events: the transmission paid so far, the storage accrual so far
// expressed as fee × event-steps (divide by the final trace length for
// the pro-rata rent), and the adaptation counters. Consecutive
// checkpoints diff into per-epoch costs — the adapter that lets the
// online strategy run under the same epoch-sliced harness as the static
// and streaming-adaptive strategies (stream.Compare, cmd/netreplay).
type Checkpoint struct {
	Events          int
	Transmission    float64
	StorageFeeSteps float64
	Replications    int
	Drops           int
	Copies          int // live replicas across objects at the checkpoint
}

// Run replays the request sequence against the instance's network with the
// counter-based dynamic strategy, starting each object at its single best
// node (the information-free starting point: first requester).
func Run(in *core.Instance, seq []workload.Request, cfg Config) Stats {
	st, _ := RunCheckpoints(in, seq, cfg, 0)
	return st
}

// RunCheckpoints is Run additionally snapshotting cumulative costs every
// `every` events (and after the final partial stretch); every <= 0
// disables checkpoints. The returned Stats are identical to Run's.
func RunCheckpoints(in *core.Instance, seq []workload.Request, cfg Config, every int) (Stats, []Checkpoint) {
	if cfg.ReplicateFactor <= 0 {
		cfg.ReplicateFactor = 2
	}
	o := in.Metric()
	n := in.N()
	states := make([]*state, len(in.Objects))

	var st Stats
	// feePerStep is the storage fee all live replicas accrue per
	// event-step (Σ size·cs over held copies, across objects), maintained
	// at seeding, replication and invalidation; feeSteps accumulates it
	// per trace event, so a copy held throughout pays exactly the static
	// fee after the final /len(seq) normalisation.
	var feePerStep, feeSteps float64
	ensure := func(oi, v int) *state {
		s := states[oi]
		if s == nil {
			s = &state{
				has:  make([]bool, n),
				gain: make([]float64, n),
				idle: make([]bool, n),
			}
			// First touch: the object materialises at its first requester
			// (no knowledge of the future).
			s.has[v] = true
			s.count = 1
			states[oi] = s
			feePerStep += in.Objects[oi].Scale() * in.Storage[v]
		}
		return s
	}

	var cps []Checkpoint
	snapshot := func(events int) {
		cp := Checkpoint{
			Events: events, Transmission: st.Transmission,
			StorageFeeSteps: feeSteps,
			Replications:    st.Replications, Drops: st.Drops,
		}
		for _, s := range states {
			if s != nil {
				cp.Copies += s.count
			}
		}
		cps = append(cps, cp)
	}

	steps := float64(len(seq))
	for i, r := range seq {
		s := ensure(r.Obj, r.V)
		size := in.Objects[r.Obj].Scale()
		// storage rent accrues per event-step for every live replica of
		// every object (normalised by the trace length at the end)
		feeSteps += feePerStep
		// nearest copy (point queries hit the cached rows of the live
		// copy set on a lazy backend)
		best, bestD := -1, math.Inf(1)
		for v := 0; v < n; v++ {
			if !s.has[v] {
				continue
			}
			if d := o.Dist(v, r.V); d < bestD {
				best, bestD = v, d
			}
		}
		st.Transmission += size * bestD
		if r.Write {
			// multicast update over the current copies
			if s.count > 1 {
				st.Transmission += size * metric.PairwiseMST(o, copySet(s), 0)
			}
			// invalidate idle replicas (classic write-invalidate pressure)
			if cfg.DropIdle {
				for v := 0; v < n; v++ {
					if s.has[v] && v != best && s.idle[v] && s.count > 1 {
						s.has[v] = false
						s.count--
						st.Drops++
						feePerStep -= size * in.Storage[v]
					}
				}
			}
			for v := 0; v < n; v++ {
				s.idle[v] = s.has[v] // becomes non-idle on the next read
			}
		} else {
			s.idle[best] = false
			// replicate-on-threshold: reads from v accumulate the distance
			// they would save with a local copy.
			if bestD > 0 {
				s.gain[r.V] += size * bestD
				if s.gain[r.V] >= cfg.ReplicateFactor*size*in.Storage[r.V] {
					s.has[r.V] = true
					s.count++
					s.gain[r.V] = 0
					s.idle[r.V] = false
					st.Replications++
					feePerStep += size * in.Storage[r.V]
				}
			}
		}
		if every > 0 && (i+1)%every == 0 {
			snapshot(i + 1)
		}
	}
	if every > 0 && len(seq)%every != 0 {
		snapshot(len(seq))
	}

	// pro-rata storage rent + final copy sets
	if steps > 0 {
		st.Storage = feeSteps / steps
	}
	for _, s := range states {
		if s == nil {
			continue
		}
		for v := 0; v < n; v++ {
			if s.has[v] {
				st.FinalCopies = append(st.FinalCopies, v)
			}
		}
	}
	return st, cps
}

func copySet(s *state) []int {
	out := make([]int, 0, s.count)
	for v, h := range s.has {
		if h {
			out = append(out, v)
		}
	}
	return out
}

// StaticCost prices a fixed placement against the same request sequence
// with identical accounting (per-request transmission, full storage fee),
// so online and static strategies are directly comparable.
func StaticCost(in *core.Instance, p core.Placement, seq []workload.Request) float64 {
	o := in.Metric()
	total := 0.0
	for oi := range in.Objects {
		size := in.Objects[oi].Scale()
		for _, c := range p.Copies[oi] {
			total += size * in.Storage[c]
		}
	}
	mst := make([]float64, len(in.Objects))
	for oi := range in.Objects {
		mst[oi] = metric.PairwiseMST(o, p.Copies[oi], 0)
	}
	for _, r := range seq {
		size := in.Objects[r.Obj].Scale()
		best := math.Inf(1)
		for _, c := range p.Copies[r.Obj] {
			if d := o.Dist(c, r.V); d < best {
				best = d
			}
		}
		total += size * best
		if r.Write {
			total += size * mst[r.Obj]
		}
	}
	return total
}
