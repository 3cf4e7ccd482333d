package metric

import (
	"math/rand"
	"slices"
	"testing"

	"netplace/internal/graph"
)

// randomScanGraph builds a random connected graph with both backends'
// request/storage fixtures for the radii kernels.
func radiiFixture(t *testing.T, seed int64, n int) (o Oracle, req Requests, writes int64, cs []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(rng.Intn(v), v, 1+rng.Float64()*9)
	}
	for k := 0; k < n; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v, 1+rng.Float64()*9)
		}
	}
	req = Requests{Count: make([]int64, n)}
	cs = make([]float64, n)
	for v := 0; v < n; v++ {
		req.Count[v] = rng.Int63n(5)
		cs[v] = 1 + rng.Float64()*20
		if rng.Intn(4) == 0 {
			writes += rng.Int63n(3)
		}
	}
	if req.Total() == 0 {
		req.Count[0] = 1
	}
	if writes > req.Total() {
		writes = req.Total()
	}
	return NewLazy(g, 64), req, writes, cs
}

// Sharded radii sweeps must be byte-identical to the serial kernel at
// every worker count: the storage-radius sweep over all nodes and the
// per-candidate write-radius sweep together reproduce ComputeRadii.
func TestComputeRadiiParallelMatchesSerial(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		o, req, writes, cs := radiiFixture(t, seed, 120)
		ws := NewWorkspace()
		serial := append([]Radii(nil), ws.ComputeRadii(o, req, writes, cs)...)
		var order []int
		for v := 0; v < o.N(); v += 17 {
			order = append(order, v)
		}
		for _, workers := range []int{1, 2, 3, 8, -1} {
			par := append([]Radii(nil), ws.ComputeStorageRadiiParallel(o, req, cs, workers)...)
			WriteRadiiParallel(o, req, writes, order, par, workers)
			for v := range par {
				want := serial[v]
				if !slices.Contains(order, v) {
					want.RW = 0 // the storage-only sweep leaves RW unset
				}
				if par[v] != want {
					t.Fatalf("seed %d workers %d: radii of node %d = %+v, want %+v", seed, workers, v, par[v], want)
				}
			}
		}
	}
}
