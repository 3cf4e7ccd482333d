package metric

import (
	"testing"

	"netplace/internal/gen"
)

// Allocation-regression tests: the pooled kernels must stay allocation-free
// in steady state, or the workspace refactor silently rots. Each test warms
// the relevant pools once, then measures with testing.AllocsPerRun. Under
// -race sync.Pool drops items on purpose, so the tests skip themselves.

// allocGrid is a 20x20 unit grid with a small lazy oracle.
func allocGrid(rows int) *Lazy {
	g := gen.Grid(20, 20, gen.UnitWeights)
	return NewLazy(g, rows)
}

// skipUnderRace skips allocation accounting when the race detector is on.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
}

func TestNearestOfIntoAllocationFree(t *testing.T) {
	skipUnderRace(t)
	l := allocGrid(32)
	sources := []int{3, 57, 211, 399}
	dst := make([]float64, l.N())
	NearestOfInto(l, sources, dst) // warm the scanner pool
	allocs := testing.AllocsPerRun(50, func() {
		NearestOfInto(l, sources, dst)
	})
	if allocs != 0 {
		t.Errorf("NearestOfInto allocates %.1f objects per sweep, want 0", allocs)
	}
}

func TestLazyRowHitAllocationFree(t *testing.T) {
	skipUnderRace(t)
	l := allocGrid(32)
	l.Row(7) // miss: computes and caches
	allocs := testing.AllocsPerRun(50, func() {
		l.Row(7)
	})
	if allocs != 0 {
		t.Errorf("cache-hit Row allocates %.1f objects, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(50, func() {
		l.Dist(7, 211)
	})
	if allocs != 0 {
		t.Errorf("cache-hit Dist allocates %.1f objects, want 0", allocs)
	}
}

func TestPairwiseMSTAllocationFree(t *testing.T) {
	skipUnderRace(t)
	l := allocGrid(32)
	points := []int{3, 57, 211, 399, 120}
	PairwiseMST(l, points, 0) // warm the workspace pool and row cache
	allocs := testing.AllocsPerRun(50, func() {
		PairwiseMST(l, points, 0)
	})
	if allocs != 0 {
		t.Errorf("PairwiseMST allocates %.1f objects per call, want 0", allocs)
	}
}

func TestWorkspaceComputeRadiiAllocationFree(t *testing.T) {
	skipUnderRace(t)
	l := allocGrid(32)
	n := l.N()
	req := Requests{Count: make([]int64, n)}
	cs := make([]float64, n)
	for v := 0; v < n; v++ {
		req.Count[v] = int64(v % 3)
		cs[v] = float64(2 + v%5)
	}
	ws := NewWorkspace()
	ws.ComputeRadii(l, req, 10, cs) // warm buffers
	allocs := testing.AllocsPerRun(20, func() {
		ws.ComputeRadii(l, req, 10, cs)
	})
	if allocs != 0 {
		t.Errorf("Workspace.ComputeRadii allocates %.1f objects per call, want 0", allocs)
	}
}
