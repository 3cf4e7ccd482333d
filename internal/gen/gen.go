// Package gen builds the network topologies used throughout the evaluation:
// trees of several shapes, rings, meshes, hypercubes, complete graphs,
// random graphs, and the two-level "Internet-like" clustered networks that
// the data-management literature (Maggs et al.) uses as a WWW stand-in.
//
// All generators are deterministic given a *rand.Rand; edge weights model
// the paper's per-transmission fees ct(e).
package gen

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"netplace/internal/graph"
)

// WeightFn produces an edge weight for edge (u, v). Generators call it once
// per edge created.
type WeightFn func(u, v int) float64

// UnitWeights assigns weight 1 to every edge (the total-load model's uniform
// fee).
func UnitWeights(u, v int) float64 { return 1 }

// UniformWeights returns a WeightFn drawing weights uniformly from [lo, hi).
func UniformWeights(rng *rand.Rand, lo, hi float64) WeightFn {
	return func(u, v int) float64 { return lo + rng.Float64()*(hi-lo) }
}

// Path returns the path graph on n nodes: 0-1-2-...-(n-1).
func Path(n int, w WeightFn) *graph.Graph {
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1, w(i, i+1))
	}
	return g
}

// Star returns the star on n nodes with node 0 as the center.
func Star(n int, w WeightFn) *graph.Graph {
	g := graph.New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(0, i, w(0, i))
	}
	return g
}

// KaryTree returns the complete k-ary tree with n nodes, rooted at node 0;
// node i's parent is (i-1)/k.
func KaryTree(n, k int, w WeightFn) *graph.Graph {
	if k < 1 {
		panic("gen: k-ary tree needs k >= 1")
	}
	g := graph.New(n)
	for i := 1; i < n; i++ {
		p := (i - 1) / k
		g.AddEdge(p, i, w(p, i))
	}
	return g
}

// RandomTree returns a uniformly random recursive tree on n nodes: node i
// attaches to a uniform random earlier node.
func RandomTree(n int, rng *rand.Rand, w WeightFn) *graph.Graph {
	g := graph.New(n)
	for i := 1; i < n; i++ {
		p := rng.Intn(i)
		g.AddEdge(p, i, w(p, i))
	}
	return g
}

// Caterpillar returns a caterpillar tree: a spine of length spine with legs
// hanging off round-robin, n nodes total.
func Caterpillar(n, spine int, w WeightFn) *graph.Graph {
	if spine < 1 || spine > n {
		panic("gen: bad caterpillar spine")
	}
	g := graph.New(n)
	for i := 1; i < spine; i++ {
		g.AddEdge(i-1, i, w(i-1, i))
	}
	for i := spine; i < n; i++ {
		p := (i - spine) % spine
		g.AddEdge(p, i, w(p, i))
	}
	return g
}

// Ring returns the cycle on n nodes.
func Ring(n int, w WeightFn) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		if i < j || n == 2 && i == 0 {
			g.AddEdge(i, j, w(i, j))
		}
	}
	if n > 2 {
		// close the ring
		g.AddEdge(n-1, 0, w(n-1, 0))
	}
	return g
}

// Grid returns the rows x cols 2-dimensional mesh.
func Grid(rows, cols int, w WeightFn) *graph.Graph {
	g := graph.New(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.AddEdge(id(r, c), id(r, c+1), w(id(r, c), id(r, c+1)))
			}
			if r+1 < rows {
				g.AddEdge(id(r, c), id(r+1, c), w(id(r, c), id(r+1, c)))
			}
		}
	}
	return g
}

// Torus returns the rows x cols 2-dimensional torus (wrap-around mesh).
func Torus(rows, cols int, w WeightFn) *graph.Graph {
	if rows < 3 || cols < 3 {
		panic("gen: torus needs rows, cols >= 3")
	}
	g := graph.New(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			g.AddEdge(id(r, c), id(r, (c+1)%cols), w(id(r, c), id(r, (c+1)%cols)))
			g.AddEdge(id(r, c), id((r+1)%rows, c), w(id(r, c), id((r+1)%rows, c)))
		}
	}
	return g
}

// Hypercube returns the d-dimensional hypercube on 2^d nodes.
func Hypercube(d int, w WeightFn) *graph.Graph {
	n := 1 << d
	g := graph.New(n)
	for v := 0; v < n; v++ {
		for b := 0; b < d; b++ {
			u := v ^ (1 << b)
			if v < u {
				g.AddEdge(v, u, w(v, u))
			}
		}
	}
	return g
}

// Complete returns the complete graph K_n.
func Complete(n int, w WeightFn) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j, w(i, j))
		}
	}
	return g
}

// ErdosRenyi returns a connected G(n, p) sample: edges included i.i.d. with
// probability p, then any disconnected result is patched by linking each
// later component to a uniform earlier node (so the sample is always usable
// as a network).
func ErdosRenyi(n int, p float64, rng *rand.Rand, w WeightFn) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.AddEdge(i, j, w(i, j))
			}
		}
	}
	patchConnect(g, rng, w)
	return g
}

// RandomGeometric places n nodes uniformly in the unit square and connects
// pairs within Euclidean distance radius; edge weight defaults to the
// Euclidean distance scaled by scale when w == nil. Patched to connectivity.
func RandomGeometric(n int, radius float64, rng *rand.Rand, scale float64) *graph.Graph {
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i], ys[i] = rng.Float64(), rng.Float64()
	}
	g := graph.New(n)
	dist := func(i, j int) float64 {
		return math.Hypot(xs[i]-xs[j], ys[i]-ys[j])
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if d := dist(i, j); d <= radius {
				g.AddEdge(i, j, d*scale)
			}
		}
	}
	patchConnect(g, rng, func(u, v int) float64 { return dist(u, v) * scale })
	return g
}

// WattsStrogatz returns a small-world graph: ring lattice with k neighbors
// per side, each edge rewired with probability beta. Patched to connectivity.
func WattsStrogatz(n, k int, beta float64, rng *rand.Rand, w WeightFn) *graph.Graph {
	if k < 1 || 2*k >= n {
		panic("gen: watts-strogatz needs 1 <= k and 2k < n")
	}
	type pair struct{ u, v int }
	seen := make(map[pair]bool)
	g := graph.New(n)
	addOnce := func(u, v int) {
		if u == v {
			return
		}
		if u > v {
			u, v = v, u
		}
		if seen[pair{u, v}] {
			return
		}
		seen[pair{u, v}] = true
		g.AddEdge(u, v, w(u, v))
	}
	for i := 0; i < n; i++ {
		for j := 1; j <= k; j++ {
			t := (i + j) % n
			if rng.Float64() < beta {
				t = rng.Intn(n)
			}
			addOnce(i, t)
		}
	}
	patchConnect(g, rng, w)
	return g
}

// BarabasiAlbert returns a preferential-attachment graph: each new node
// attaches m edges to existing nodes with probability proportional to degree.
func BarabasiAlbert(n, m int, rng *rand.Rand, w WeightFn) *graph.Graph {
	if m < 1 || n < m+1 {
		panic("gen: barabasi-albert needs n > m >= 1")
	}
	g := graph.New(n)
	// endpoint multiset for proportional sampling
	var ends []int
	for i := 1; i <= m; i++ {
		g.AddEdge(0, i, w(0, i))
		ends = append(ends, 0, i)
	}
	chosen := make([]int, 0, m)
	for v := m + 1; v < n; v++ {
		// Attach in the order targets were first drawn: ranging over a
		// set would reorder the edges (and, with a random WeightFn, the
		// weights) from run to run.
		chosen = chosen[:0]
		for len(chosen) < m {
			if u := ends[rng.Intn(len(ends))]; !slices.Contains(chosen, u) {
				chosen = append(chosen, u)
			}
		}
		for _, u := range chosen {
			g.AddEdge(u, v, w(u, v))
			ends = append(ends, u, v)
		}
	}
	return g
}

// ClusteredParams configures the Internet-like two-level topology.
type ClusteredParams struct {
	Clusters    int     // number of access clusters
	ClusterSize int     // nodes per cluster (including its gateway)
	IntraWeight float64 // fee on intra-cluster links (cheap LAN)
	InterWeight float64 // fee on backbone links (expensive WAN)
	Backbone    float64 // probability of an extra backbone shortcut
}

// Clustered builds a two-level "Internet-like" network in the spirit of the
// clustered networks of Maggs et al. [10]: each cluster is a cheap star
// around a gateway; gateways form an expensive backbone ring with random
// shortcuts. Node 0..Clusters-1 are the gateways.
func Clustered(p ClusteredParams, rng *rand.Rand) *graph.Graph {
	if p.Clusters < 1 || p.ClusterSize < 1 {
		panic("gen: bad clustered params")
	}
	n := p.Clusters * p.ClusterSize
	g := graph.New(n)
	// Backbone ring over gateways 0..Clusters-1.
	for c := 0; c < p.Clusters; c++ {
		next := (c + 1) % p.Clusters
		if c < next || p.Clusters == 2 && c == 0 {
			g.AddEdge(c, next, p.InterWeight)
		}
	}
	if p.Clusters > 2 {
		g.AddEdge(p.Clusters-1, 0, p.InterWeight)
	}
	// Random backbone shortcuts.
	for a := 0; a < p.Clusters; a++ {
		for b := a + 2; b < p.Clusters; b++ {
			if a == 0 && b == p.Clusters-1 {
				continue // ring edge already present
			}
			if rng.Float64() < p.Backbone {
				g.AddEdge(a, b, p.InterWeight)
			}
		}
	}
	// Cluster members: node id = Clusters + c*(ClusterSize-1) + i attaches
	// to gateway c.
	id := p.Clusters
	for c := 0; c < p.Clusters; c++ {
		for i := 0; i < p.ClusterSize-1; i++ {
			g.AddEdge(c, id, p.IntraWeight)
			id++
		}
	}
	return g
}

// FatTree returns a simplified 3-level fat-tree datacenter topology with k
// pods (k even): k^2/4 core switches, k aggregation + k edge switches per
// pod half... reduced here to the standard k-port fat tree node counts.
// Edge weights: core links cost coreW, pod links cost podW.
func FatTree(k int, coreW, podW float64) *graph.Graph {
	if k < 2 || k%2 != 0 {
		panic("gen: fat tree needs even k >= 2")
	}
	core := k * k / 4
	aggPerPod := k / 2
	edgePerPod := k / 2
	n := core + k*(aggPerPod+edgePerPod)
	g := graph.New(n)
	aggID := func(pod, i int) int { return core + pod*aggPerPod + i }
	edgeID := func(pod, i int) int { return core + k*aggPerPod + pod*edgePerPod + i }
	// core <-> aggregation
	for pod := 0; pod < k; pod++ {
		for a := 0; a < aggPerPod; a++ {
			for c := 0; c < k/2; c++ {
				coreIdx := a*(k/2) + c
				g.AddEdge(coreIdx, aggID(pod, a), coreW)
			}
		}
		// aggregation <-> edge within pod
		for a := 0; a < aggPerPod; a++ {
			for e := 0; e < edgePerPod; e++ {
				g.AddEdge(aggID(pod, a), edgeID(pod, e), podW)
			}
		}
	}
	return g
}

// patchConnect links components to node 0's component with random edges so
// generators always return connected graphs.
func patchConnect(g *graph.Graph, rng *rand.Rand, w WeightFn) {
	n := g.N()
	if n == 0 {
		return
	}
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	// Adjacency snapshot taken before any patch edge: every edge added
	// below leads to an already-marked node, so traversals never need it —
	// and interleaving AddEdge with graph traversals would rebuild the
	// graph's compacted adjacency once per component.
	adj := make([][]int32, n)
	for _, e := range g.Edges() {
		adj[e.U] = append(adj[e.U], int32(e.V))
		adj[e.V] = append(adj[e.V], int32(e.U))
	}
	var stack []int
	mark := func(s, c int) {
		stack = stack[:0]
		stack = append(stack, s)
		comp[s] = c
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, u := range adj[v] {
				if comp[u] < 0 {
					comp[u] = c
					stack = append(stack, int(u))
				}
			}
		}
	}
	mark(0, 0)
	for v := 1; v < n; v++ {
		if comp[v] < 0 {
			// attach v's component to a random already-connected node
			u := rng.Intn(v)
			for comp[u] != 0 {
				u = rng.Intn(v)
			}
			g.AddEdge(u, v, w(u, v))
			mark(v, 0)
		}
	}
}

// Name-based dispatch used by the CLI tools.

// Build constructs a topology by name with a standard parameterisation;
// it exists so cmd/gennet and tests can request topologies uniformly.
func Build(name string, n int, rng *rand.Rand) (*graph.Graph, error) {
	uw := UniformWeights(rng, 0.5, 2.0)
	switch name {
	case "path":
		return Path(n, uw), nil
	case "star":
		return Star(n, uw), nil
	case "binary-tree":
		return KaryTree(n, 2, uw), nil
	case "random-tree":
		return RandomTree(n, rng, uw), nil
	case "ring":
		return Ring(n, uw), nil
	case "grid":
		side := int(math.Round(math.Sqrt(float64(n))))
		if side < 2 {
			side = 2
		}
		return Grid(side, side, uw), nil
	case "hypercube":
		d := 1
		for 1<<d < n {
			d++
		}
		return Hypercube(d, uw), nil
	case "complete":
		return Complete(n, uw), nil
	case "er":
		return ErdosRenyi(n, math.Min(1, 2*math.Log(float64(n)+1)/float64(n)), rng, uw), nil
	case "geometric":
		return RandomGeometric(n, math.Sqrt(3*math.Log(float64(n)+2)/float64(n)), rng, 1.0), nil
	case "clustered":
		c := int(math.Max(2, math.Round(math.Sqrt(float64(n)/4)))) // few big clusters
		size := (n + c - 1) / c
		return Clustered(ClusteredParams{Clusters: c, ClusterSize: size, IntraWeight: 0.2, InterWeight: 3.0, Backbone: 0.3}, rng), nil
	default:
		return nil, fmt.Errorf("gen: unknown topology %q", name)
	}
}
