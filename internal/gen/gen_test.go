package gen

import (
	"math/rand"
	"reflect"
	"testing"

	"netplace/internal/graph"
)

func TestDeterministicTopologies(t *testing.T) {
	cases := []struct {
		name  string
		build func() *graph.Graph
		nodes int
		edges int
	}{
		{"path", func() *graph.Graph { return Path(10, UnitWeights) }, 10, 9},
		{"star", func() *graph.Graph { return Star(10, UnitWeights) }, 10, 9},
		{"binary", func() *graph.Graph { return KaryTree(15, 2, UnitWeights) }, 15, 14},
		{"ternary", func() *graph.Graph { return KaryTree(13, 3, UnitWeights) }, 13, 12},
		{"ring", func() *graph.Graph { return Ring(8, UnitWeights) }, 8, 8},
		{"ring2", func() *graph.Graph { return Ring(2, UnitWeights) }, 2, 1},
		{"grid", func() *graph.Graph { return Grid(4, 5, UnitWeights) }, 20, 31},
		{"torus", func() *graph.Graph { return Torus(3, 4, UnitWeights) }, 12, 24},
		{"hypercube", func() *graph.Graph { return Hypercube(4, UnitWeights) }, 16, 32},
		{"complete", func() *graph.Graph { return Complete(7, UnitWeights) }, 7, 21},
		{"caterpillar", func() *graph.Graph { return Caterpillar(12, 5, UnitWeights) }, 12, 11},
	}
	for _, tc := range cases {
		g := tc.build()
		if g.N() != tc.nodes {
			t.Errorf("%s: %d nodes, want %d", tc.name, g.N(), tc.nodes)
		}
		if g.M() != tc.edges {
			t.Errorf("%s: %d edges, want %d", tc.name, g.M(), tc.edges)
		}
		if !g.Connected() {
			t.Errorf("%s: not connected", tc.name)
		}
	}
}

func TestTreesAreTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, g := range []*graph.Graph{
		Path(20, UnitWeights),
		Star(20, UnitWeights),
		KaryTree(20, 2, UnitWeights),
		RandomTree(20, rng, UnitWeights),
		Caterpillar(20, 7, UnitWeights),
	} {
		if !g.IsTree() {
			t.Errorf("generator produced a non-tree with %d nodes / %d edges", g.N(), g.M())
		}
	}
}

func TestRandomGraphsConnectedAndSeeded(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		a := ErdosRenyi(30, 0.05, rand.New(rand.NewSource(seed)), UnitWeights)
		b := ErdosRenyi(30, 0.05, rand.New(rand.NewSource(seed)), UnitWeights)
		if !a.Connected() {
			t.Fatalf("seed %d: ER not connected", seed)
		}
		if a.M() != b.M() {
			t.Fatalf("seed %d: ER not deterministic (%d vs %d edges)", seed, a.M(), b.M())
		}
		g := RandomGeometric(40, 0.2, rand.New(rand.NewSource(seed)), 1)
		if !g.Connected() {
			t.Fatalf("seed %d: geometric not connected", seed)
		}
		ws := WattsStrogatz(30, 2, 0.2, rand.New(rand.NewSource(seed)), UnitWeights)
		if !ws.Connected() {
			t.Fatalf("seed %d: watts-strogatz not connected", seed)
		}
		ba := BarabasiAlbert(30, 2, rand.New(rand.NewSource(seed)), UnitWeights)
		if !ba.Connected() {
			t.Fatalf("seed %d: barabasi-albert not connected", seed)
		}
	}
}

// Every generator that takes an rng must be deterministic given it: two
// builds from one seed produce identical edge lists, order and weights
// included (weights come from the same rng, so a reordered edge list
// would also reweight the graph).
func TestSeededGeneratorsDeterministic(t *testing.T) {
	builders := map[string]func(rng *rand.Rand) *graph.Graph{
		"random-tree": func(rng *rand.Rand) *graph.Graph {
			return RandomTree(40, rng, UniformWeights(rng, 1, 9))
		},
		"erdos-renyi": func(rng *rand.Rand) *graph.Graph {
			return ErdosRenyi(40, 0.1, rng, UniformWeights(rng, 1, 9))
		},
		"geometric": func(rng *rand.Rand) *graph.Graph {
			return RandomGeometric(40, 0.2, rng, 1)
		},
		"watts-strogatz": func(rng *rand.Rand) *graph.Graph {
			return WattsStrogatz(40, 2, 0.3, rng, UniformWeights(rng, 1, 9))
		},
		"barabasi-albert": func(rng *rand.Rand) *graph.Graph {
			return BarabasiAlbert(40, 3, rng, UniformWeights(rng, 1, 9))
		},
		"clustered": func(rng *rand.Rand) *graph.Graph {
			return Clustered(ClusteredParams{Clusters: 4, ClusterSize: 8, IntraWeight: 0.2, InterWeight: 3, Backbone: 0.5}, rng)
		},
	}
	for _, name := range []string{"path", "star", "binary-tree", "random-tree", "ring", "grid", "hypercube", "complete", "er", "geometric", "clustered"} {
		builders["build/"+name] = func(rng *rand.Rand) *graph.Graph {
			g, err := Build(name, 30, rng)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
	}
	for name, build := range builders {
		for seed := int64(0); seed < 5; seed++ {
			a := build(rand.New(rand.NewSource(seed)))
			b := build(rand.New(rand.NewSource(seed)))
			if !reflect.DeepEqual(a.Edges(), b.Edges()) {
				t.Fatalf("%s seed %d: two builds from one seed differ", name, seed)
			}
		}
	}
}

func TestClusteredShape(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := ClusteredParams{Clusters: 5, ClusterSize: 6, IntraWeight: 0.1, InterWeight: 5, Backbone: 0.5}
	g := Clustered(p, rng)
	if g.N() != 30 {
		t.Fatalf("nodes %d", g.N())
	}
	if !g.Connected() {
		t.Fatal("clustered not connected")
	}
	// Gateways 0..4 must interconnect via expensive edges only; leaf nodes
	// attach by one cheap edge.
	for _, e := range g.Edges() {
		if e.U < 5 && e.V < 5 {
			if e.W != 5 {
				t.Fatalf("backbone edge fee %v", e.W)
			}
		} else if e.W != 0.1 {
			t.Fatalf("access edge fee %v", e.W)
		}
	}
	// Every non-gateway node has degree 1 (star inside cluster).
	for v := 5; v < 30; v++ {
		if g.Degree(v) != 1 {
			t.Fatalf("member node %d degree %d", v, g.Degree(v))
		}
	}
}

func TestFatTreeShape(t *testing.T) {
	g := FatTree(4, 2, 1)
	// k=4: 4 core, 4 pods x (2 agg + 2 edge) = 4 + 16 = 20 nodes
	if g.N() != 20 {
		t.Fatalf("nodes %d, want 20", g.N())
	}
	if !g.Connected() {
		t.Fatal("fat tree not connected")
	}
}

func TestBuildDispatch(t *testing.T) {
	names := []string{"path", "star", "binary-tree", "random-tree", "ring", "grid",
		"hypercube", "complete", "er", "geometric", "clustered"}
	for _, name := range names {
		g, err := Build(name, 25, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !g.Connected() {
			t.Fatalf("%s: disconnected", name)
		}
		if g.N() < 16 {
			t.Fatalf("%s: suspiciously few nodes %d", name, g.N())
		}
	}
	if _, err := Build("nope", 10, rand.New(rand.NewSource(0))); err == nil {
		t.Fatal("unknown topology must error")
	}
}
