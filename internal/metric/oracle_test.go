package metric

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"netplace/internal/graph"
)

// intWeights draws integer edge weights so that shortest-path sums are
// exact in float64 regardless of summation order: the property tests can
// then demand bit-identical distances across backends.
func intWeights(rng *rand.Rand) func(u, v int) float64 {
	return func(u, v int) float64 { return float64(1 + rng.Intn(9)) }
}

// randomSparse returns a connected sparse graph: a random spanning tree
// plus a few extra edges.
func randomSparse(rng *rand.Rand, n, extra int) *graph.Graph {
	g := graph.New(n)
	w := intWeights(rng)
	for v := 1; v < n; v++ {
		p := rng.Intn(v)
		g.AddEdge(p, v, w(p, v))
	}
	for e := 0; e < extra; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v, w(u, v))
		}
	}
	return g
}

func backendsFor(g *graph.Graph) map[string]Oracle {
	m := map[string]Oracle{
		"dense":      New(g.AllPairs()),
		"lazy":       NewLazy(g, 0),
		"lazy-tiny":  NewLazy(g, 2), // thrashing cache must stay correct
		"lazy-large": NewLazy(g, 4096),
	}
	if g.IsTree() {
		m["tree"] = NewTree(g)
	}
	return m
}

func TestOracleDistanceEquivalence(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		extra := rng.Intn(3) * rng.Intn(n) // every third graph is a tree
		g := randomSparse(rng, n, extra)
		want := New(g.AllPairs())
		for name, o := range backendsFor(g) {
			if o.N() != n {
				t.Fatalf("%s: N() = %d, want %d", name, o.N(), n)
			}
			for u := 0; u < n; u++ {
				row := o.Row(u)
				for v := 0; v < n; v++ {
					if row[v] != want.D[u][v] {
						t.Fatalf("seed %d %s: Row(%d)[%d] = %v, want %v", seed, name, u, v, row[v], want.D[u][v])
					}
					if d := o.Dist(u, v); d != want.D[u][v] {
						t.Fatalf("seed %d %s: Dist(%d,%d) = %v, want %v", seed, name, u, v, d, want.D[u][v])
					}
				}
			}
		}
	}
}

func TestScanNearOrderAndCoverage(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := randomSparse(rng, n, rng.Intn(n))
		for name, o := range backendsFor(g) {
			src := rng.Intn(n)
			seen := make(map[int]float64, n)
			last := math.Inf(-1)
			ScanNear(o, src, func(u int, d float64) bool {
				if d < last {
					t.Fatalf("%s: scan from %d not nondecreasing (%v after %v)", name, src, d, last)
				}
				last = d
				seen[u] = d
				return true
			})
			if len(seen) != n {
				t.Fatalf("%s: scan from %d visited %d of %d nodes", name, src, len(seen), n)
			}
			for u, d := range seen {
				if d != o.Dist(src, u) {
					t.Fatalf("%s: scan distance to %d = %v, Dist = %v", name, u, d, o.Dist(src, u))
				}
			}
			// Early stop after k nodes must see the k nearest.
			k := 1 + rng.Intn(n)
			count := 0
			ScanNear(o, src, func(u int, d float64) bool {
				count++
				return count < k
			})
			if count != k {
				t.Fatalf("%s: early-stopped scan visited %d nodes, want %d", name, count, k)
			}
		}
	}
}

func TestNearestHelpersEquivalence(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := randomSparse(rng, n, rng.Intn(n))
		srcCount := 1 + rng.Intn(5)
		sources := rng.Perm(n)
		if srcCount > n {
			srcCount = n
		}
		sources = sources[:srcCount]
		dense := New(g.AllPairs())
		want := NearestOf(dense, sources)
		wantMST := PairwiseMST(dense, sources, 0)
		for name, o := range backendsFor(g) {
			if got := NearestOf(o, sources); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d %s: NearestOf diverged\n got %v\nwant %v", seed, name, got, want)
			}
			near := make([]float64, n)
			for v := range near {
				near[v] = math.Inf(1)
			}
			for _, s := range sources {
				ImproveNearest(o, s, near)
			}
			if !reflect.DeepEqual(near, want) {
				t.Fatalf("seed %d %s: incremental ImproveNearest diverged", seed, name)
			}
			if got := PairwiseMST(o, sources, 0); got != wantMST {
				t.Fatalf("seed %d %s: PairwiseMST = %v, want %v", seed, name, got, wantMST)
			}
		}
	}
}

func TestComputeRadiiEquivalence(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := randomSparse(rng, n, rng.Intn(n))
		req := Requests{Count: make([]int64, n)}
		cs := make([]float64, n)
		var writes int64
		for v := 0; v < n; v++ {
			req.Count[v] = rng.Int63n(6)
			cs[v] = float64(rng.Intn(40))
		}
		total := req.Total()
		if total == 0 {
			req.Count[0] = 1
			total = 1
		}
		writes = rng.Int63n(total + 1)
		want := ComputeRadii(New(g.AllPairs()), req, writes, cs)
		for name, o := range backendsFor(g) {
			got := ComputeRadii(o, req, writes, cs)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d %s: radii diverged\n got %+v\nwant %+v", seed, name, got, want)
			}
		}
		// AvgDist prefixes agree as well.
		v := rng.Intn(n)
		for z := int64(0); z <= total; z++ {
			want := AvgDist(New(g.AllPairs()), req, v, z)
			for name, o := range backendsFor(g) {
				if got := AvgDist(o, req, v, z); got != want {
					t.Fatalf("seed %d %s: AvgDist(%d,%d) = %v, want %v", seed, name, v, z, got, want)
				}
			}
		}
	}
}

func TestLazyDistSymmetricCacheUse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomSparse(rng, 50, 30)
	l := NewLazy(g, 4)
	dense := New(g.AllPairs())
	// Random access pattern with a tiny cache: every answer must match.
	for i := 0; i < 2000; i++ {
		u, v := rng.Intn(50), rng.Intn(50)
		if got := l.Dist(u, v); got != dense.D[u][v] {
			t.Fatalf("Dist(%d,%d) = %v, want %v", u, v, got, dense.D[u][v])
		}
	}
}

func TestLazyRowConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomSparse(rng, 80, 40)
	dense := New(g.AllPairs())
	l := NewLazy(g, 8)
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		w := w
		go func() {
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 500; i++ {
				u := rng.Intn(80)
				row := l.Row(u)
				for v, d := range row {
					if d != dense.D[u][v] {
						done <- errMismatch
						return
					}
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errMismatch = errString("concurrent lazy row mismatch")

type errString string

func (e errString) Error() string { return string(e) }

func TestTreeMetricAgainstDijkstra(t *testing.T) {
	shapes := []func(rng *rand.Rand) *graph.Graph{
		func(rng *rand.Rand) *graph.Graph { return randomSparse(rng, 1, 0) },
		func(rng *rand.Rand) *graph.Graph { return randomSparse(rng, 2, 0) },
		func(rng *rand.Rand) *graph.Graph { return randomSparse(rng, 40, 0) },
		func(rng *rand.Rand) *graph.Graph { // star: high degree stress
			g := graph.New(30)
			for v := 1; v < 30; v++ {
				g.AddEdge(0, v, float64(1+rng.Intn(5)))
			}
			return g
		},
		func(rng *rand.Rand) *graph.Graph { // path: depth stress
			g := graph.New(60)
			for v := 1; v < 60; v++ {
				g.AddEdge(v-1, v, float64(1+rng.Intn(5)))
			}
			return g
		},
	}
	for si, shape := range shapes {
		rng := rand.New(rand.NewSource(int64(si)))
		g := shape(rng)
		tm := NewTree(g)
		for u := 0; u < g.N(); u++ {
			want, _ := g.Dijkstra(u)
			for v := 0; v < g.N(); v++ {
				if got := tm.Dist(u, v); got != want[v] {
					t.Fatalf("shape %d: Dist(%d,%d) = %v, want %v", si, u, v, got, want[v])
				}
			}
		}
	}
}

func TestMaterializeMatchesAllPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomSparse(rng, 25, 10)
	want := g.AllPairs()
	for name, o := range backendsFor(g) {
		got := Materialize(o)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Materialize diverged", name)
		}
	}
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{KindDense: "dense", KindLazy: "lazy", KindTree: "tree", Kind(99): "unknown"}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("Kind(%d).String() = %q, want %q", int(k), k.String(), s)
		}
	}
}
