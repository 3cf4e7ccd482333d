package core

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"netplace/internal/facility"
	"netplace/internal/gen"
	"netplace/internal/graph"
	"netplace/internal/metric"
)

// Object-level parallelism must be exact: same placements as sequential.
func TestApproximateParallelMatchesSequential(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := randomCoreInstance(rng, 14, 6, 0.4)
		seq := Approximate(in, Options{Workers: 1})
		// Workers 0 defaults to GOMAXPROCS (parallel), like negative values.
		for _, workers := range []int{0, 2, 4, -1} {
			par := Approximate(in, Options{Workers: workers})
			if !reflect.DeepEqual(seq.Copies, par.Copies) {
				t.Fatalf("seed %d workers %d: parallel diverged: %v vs %v",
					seed, workers, par.Copies, seq.Copies)
			}
		}
	}
}

// Intra-solve parallelism must be exact: a solve sharded across any
// number of workers is byte-identical to the serial solve, on every
// oracle backend (the sharded scans write disjoint per-node results whose
// values do not depend on the schedule).
func TestIntraSolveParallelMatchesSerial(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		for _, tree := range []bool{false, true} {
			rng := rand.New(rand.NewSource(seed))
			n := 10 + rng.Intn(30)
			nobj := 1 + rng.Intn(3)
			for _, b := range instanceBackends(tree) {
				in := intWeightInstance(rand.New(rand.NewSource(seed)), n, nobj, tree)
				in.UseMetric(b, 3)
				serial := Approximate(in, Options{Workers: 1})
				for _, par := range []int{2, 4, 8, -1} {
					got := Approximate(in, Options{Workers: 1, Parallel: par})
					if !reflect.DeepEqual(got.Copies, serial.Copies) {
						t.Fatalf("seed %d tree=%v backend %v parallel %d: %v vs serial %v",
							seed, tree, b, par, got.Copies, serial.Copies)
					}
					// Workers and Parallel must compose without changing output.
					both := Approximate(in, Options{Workers: 2, Parallel: par})
					if !reflect.DeepEqual(both.Copies, serial.Copies) {
						t.Fatalf("seed %d tree=%v backend %v workers 2 x parallel %d diverged",
							seed, tree, b, par)
					}
				}
			}
		}
	}
}

// The Mettu–Plaxton phase-1 solver is the one that shards its own radius
// scans; pin it explicitly at higher write pressure so the parallel FL
// path is exercised even on instances small enough to auto-select local
// search.
func TestIntraSolveParallelMettuPlaxton(t *testing.T) {
	for seed := int64(10); seed < 14; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := randomCoreInstance(rng, 40, 3, 0.6)
		in.UseMetric(MetricLazy, 8)
		serial := Approximate(in, Options{Workers: 1, FL: facility.MettuPlaxton})
		for _, par := range []int{2, 8} {
			got := Approximate(in, Options{Workers: 1, FL: facility.MettuPlaxton, Parallel: par})
			if !reflect.DeepEqual(got.Copies, serial.Copies) {
				t.Fatalf("seed %d parallel %d: Mettu–Plaxton parallel solve diverged", seed, par)
			}
		}
	}
}

// The dense backend's sharded row build must equal the serial
// all-pairs reference at every worker count.
func TestAllPairsParallelMatchesSequential(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := gen.ErdosRenyi(40, 0.15, rng, gen.UniformWeights(rng, 1, 9))
		want := g.AllPairs()
		for _, workers := range []int{1, 2, 3, -1} {
			if got := allPairs(g, workers); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d workers %d: parallel APSP differs", seed, workers)
			}
		}
		in := MustInstance(g, make([]float64, g.N()), nil)
		in.UseMetric(MetricDense, 0)
		if got := in.Metric().(*metric.Space).D; !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: dense oracle differs from AllPairs", seed)
		}
	}
}

// Concurrent lazy metric initialisation must be race-free (run with -race)
// and install one oracle.
func TestDistConcurrentInit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := randomCoreInstance(rng, 20, 1, 0.3)
	done := make(chan metric.Oracle, 8)
	for k := 0; k < 8; k++ {
		go func() { done <- in.Metric() }()
	}
	first := <-done
	for k := 1; k < 8; k++ {
		if other := <-done; other != first {
			t.Fatal("concurrent Metric() returned distinct oracles")
		}
	}
}

// large50k builds the 50k-node sparse fixture of the parallel-equivalence
// property test on the requested backend: the sparse-grid acceptance
// topology for the lazy oracle, a random integer-weight tree of the same
// size for the tree oracle (the dense backend is excluded — Θ(n²) memory).
// Demand is CDN-like: every node reads once, writers sit on a sparse
// residue class, so payment balls stay local and a solve is heavy enough
// for the sharded kernels to matter without making the test minutes long.
func large50k(t *testing.T, backend MetricBackend) *Instance {
	t.Helper()
	const side = 224 // 50176 nodes
	n := side * side
	var g *graph.Graph
	switch backend {
	case MetricLazy:
		g = gen.Grid(side, side, gen.UnitWeights)
	case MetricTree:
		rng := rand.New(rand.NewSource(77))
		g = gen.RandomTree(n, rng, func(u, v int) float64 { return float64(1 + rng.Intn(5)) })
	default:
		t.Fatalf("large50k: unsupported backend %v", backend)
	}
	storage := make([]float64, n)
	for v := range storage {
		storage[v] = float64(3 + v%5)
	}
	obj := Object{Reads: make([]int64, n), Writes: make([]int64, n)}
	for v := 0; v < n; v++ {
		obj.Reads[v] = 1
		if v%1201 == 0 {
			obj.Writes[v] = 1
		}
	}
	in := MustInstance(g, storage, []Object{obj})
	in.UseMetric(backend, 64)
	return in
}

// At 50k nodes every parallel knob — auto (which resolves GOMAXPROCS past
// AutoParallelMinNodes), explicit counts, and all-cores — must place
// byte-identically to a solve pinned serial, on both large-instance
// backends. This is the property the size-aware default rests on: auto
// may only change the schedule, never the placement.
func TestParallel50kByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("50k-node solves in -short mode")
	}
	for _, backend := range []MetricBackend{MetricLazy, MetricTree} {
		in := large50k(t, backend)
		serial := Approximate(in, Options{Workers: 1, Parallel: 1})
		for _, par := range []int{0, 2, 4, -1} {
			got := Approximate(in, Options{Workers: 1, Parallel: par})
			if !reflect.DeepEqual(got.Copies, serial.Copies) {
				t.Fatalf("backend %v parallel %d: placement diverged from serial", backend, par)
			}
		}
	}
}

// The auto policy's resolution itself: unset Parallel stays serial below
// the threshold and fans out at it, explicit knobs are untouched.
func TestEffectiveParallelAutoPolicy(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	cases := []struct{ parallel, n, want int }{
		{0, AutoParallelMinNodes - 1, 1},
		{0, AutoParallelMinNodes, procs},
		{0, 2500, 1},
		{1, 1 << 20, 1},
		{3, 1 << 20, 3},
		{3, 10, 3},
		{-1, 10, procs},
	}
	for _, c := range cases {
		if got := EffectiveParallel(c.parallel, c.n); got != c.want {
			t.Fatalf("EffectiveParallel(%d, %d) = %d, want %d", c.parallel, c.n, got, c.want)
		}
	}
}
