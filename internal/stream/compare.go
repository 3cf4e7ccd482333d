package stream

import (
	"math/rand"

	"netplace/internal/core"
	"netplace/internal/metric"
	"netplace/internal/online"
	"netplace/internal/workload"
)

// StrategyCost is one strategy's bill over a trace, epoch by epoch, under
// the shared pro-rata accounting: per-request transmission to the nearest
// live copy, write multicasts over the live copy set, storage rented per
// event-step, and (adaptive only) migration transfers. Total sums the
// components; PerEpoch[k] is epoch k's share of it.
type StrategyCost struct {
	Name         string
	Transmission float64
	Storage      float64
	Migration    float64
	PerEpoch     []float64

	// Adaptation counters: Moves/Resolves for the streaming engine,
	// Replications/Drops for the counter-online strategy; zero for static.
	Moves        int
	Resolves     int
	Replications int
	Drops        int
}

// Total returns the strategy's full-trace cost.
func (s StrategyCost) Total() float64 { return s.Transmission + s.Storage + s.Migration }

// Comparison carries the three strategies' bills on one trace: the
// paper's static algorithm placed from the instance's true frequency
// tables (clairvoyant), the counter-based online strategy
// (internal/online), and the streaming adaptive engine — all priced with
// identical accounting so the totals are directly comparable.
type Comparison struct {
	Events      int
	EpochEvents int
	Epochs      int
	Static      StrategyCost
	Online      StrategyCost
	Adaptive    StrategyCost
}

// Compare replays one trace under all three strategies. The static
// strategy solves once from in's frequency tables and holds the placement
// throughout (paying the full storage fee, exactly as a held-throughout
// copy does under pro-rata rent); the online strategy runs
// online.DefaultConfig; the adaptive strategy runs a streaming Engine
// under cfg. Epoch boundaries for all three follow cfg.Epoch.
func Compare(in *core.Instance, seq []workload.Request, cfg Config) Comparison {
	cfg = cfg.withDefaults()
	cmp := Comparison{Events: len(seq), EpochEvents: cfg.Epoch}
	if len(seq) == 0 {
		return cmp
	}
	cmp.Epochs = (len(seq) + cfg.Epoch - 1) / cfg.Epoch
	cmp.Static = staticCost(in, core.Approximate(in, cfg.Solve), seq, cfg.Epoch)
	cmp.Online = onlineCost(in, seq, cfg.Epoch)
	cmp.Adaptive = adaptiveCost(in, seq, cfg)
	return cmp
}

// staticCost prices a fixed placement epoch by epoch. The sum over epochs
// equals online.StaticCost(in, p, seq) on the same trace.
func staticCost(in *core.Instance, p core.Placement, seq []workload.Request, epoch int) StrategyCost {
	sc := StrategyCost{Name: "static"}
	o := in.Metric()
	T := float64(len(seq))
	// Per-object nearest-copy fields and multicast weights, computed once.
	near := make([][]float64, len(in.Objects))
	mst := make([]float64, len(in.Objects))
	var storage float64
	for oi := range in.Objects {
		near[oi] = metric.NearestOf(o, p.Copies[oi])
		mst[oi] = metric.PairwiseMST(o, p.Copies[oi], 0)
		size := in.Objects[oi].Scale()
		for _, c := range p.Copies[oi] {
			storage += size * in.Storage[c]
		}
	}
	sc.Storage = storage
	for start := 0; start < len(seq); start += epoch {
		end := start + epoch
		if end > len(seq) {
			end = len(seq)
		}
		var tx float64
		for _, r := range seq[start:end] {
			size := in.Objects[r.Obj].Scale()
			tx += size * near[r.Obj][r.V]
			if r.Write {
				tx += size * mst[r.Obj]
			}
		}
		sc.Transmission += tx
		sc.PerEpoch = append(sc.PerEpoch, tx+storage*float64(end-start)/T)
	}
	return sc
}

// onlineCost runs the counter-based strategy and slices its cumulative
// checkpoints into per-epoch bills.
func onlineCost(in *core.Instance, seq []workload.Request, epoch int) StrategyCost {
	sc := StrategyCost{Name: "online"}
	st, cps := online.RunCheckpoints(in, seq, online.DefaultConfig(), epoch)
	sc.Transmission = st.Transmission
	sc.Storage = st.Storage
	sc.Replications = st.Replications
	sc.Drops = st.Drops
	T := float64(len(seq))
	var prev online.Checkpoint
	for _, cp := range cps {
		sc.PerEpoch = append(sc.PerEpoch,
			(cp.Transmission-prev.Transmission)+(cp.StorageFeeSteps-prev.StorageFeeSteps)/T)
		prev = cp
	}
	return sc
}

// adaptiveCost replays the trace through a streaming Engine.
func adaptiveCost(in *core.Instance, seq []workload.Request, cfg Config) StrategyCost {
	sc := StrategyCost{Name: "adaptive"}
	eng := New(in, cfg)
	T := float64(len(seq))
	record := func(rep *EpochReport) {
		if rep == nil {
			return
		}
		sc.PerEpoch = append(sc.PerEpoch,
			rep.Transmission+rep.StorageFeeSteps/T+rep.Migration)
	}
	for _, r := range seq {
		rep, err := eng.Observe(r)
		if err != nil {
			// Events come from the same instance the engine wraps; a
			// mismatch is a caller bug surfaced by ReadTrace earlier.
			panic(err)
		}
		record(rep)
	}
	record(eng.Flush())
	st := eng.Stats()
	sc.Transmission = st.Transmission
	sc.Storage = st.Storage
	sc.Migration = st.Migration
	sc.Moves = st.Moves
	sc.Resolves = st.Resolves
	return sc
}

// Drift synthesises a drifting-demand trace: gen produces one frequency
// table per phase (typically with hotspots on disjoint node groups), the
// trace concatenates one drawn sequence per phase (events total), and the
// returned objects hold the summed tables — the average demand a
// clairvoyant static solver is given. Used by experiment E18, the
// adaptive example, and the bundled cmd/netreplay trace.
func Drift(n, phases, events int, rng *rand.Rand, gen func(phase int) []core.Object) ([]core.Object, []workload.Request) {
	if phases <= 0 {
		phases = 2
	}
	if events <= 0 {
		events = 2048
	}
	var avg []core.Object
	var seq []workload.Request
	per := events / phases
	for k := 0; k < phases; k++ {
		objs := gen(k)
		if avg == nil {
			avg = make([]core.Object, len(objs))
			for i := range objs {
				avg[i] = core.Object{
					Name: objs[i].Name, Size: objs[i].Size,
					Reads:  make([]int64, n),
					Writes: make([]int64, n),
				}
			}
		}
		for i := range objs {
			for v := 0; v < n; v++ {
				avg[i].Reads[v] += objs[i].Reads[v]
				avg[i].Writes[v] += objs[i].Writes[v]
			}
		}
		want := per
		if k == phases-1 {
			want = events - per*(phases-1)
		}
		seq = append(seq, workload.Sequence(objs, want, rng)...)
	}
	return avg, seq
}
