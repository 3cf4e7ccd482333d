// Package graph provides the weighted undirected graph substrate used by all
// data-management algorithms in this repository: adjacency representation,
// shortest paths, spanning trees, and structural queries.
//
// Edge weights are the paper's transmission costs ct(e); they must be
// non-negative. Nodes are dense integers 0..N-1 so that algorithms can use
// slices instead of maps on hot paths.
package graph

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Edge is an undirected edge between nodes U and V with transmission cost W.
type Edge struct {
	U, V int
	W    float64
}

// csrAdj is the compacted adjacency of a graph in CSR (compressed sparse
// row) form: node v's neighbors live at indices off[v]..off[v+1] of the
// flat to/w arrays, in edge-insertion order per node. The flat layout
// replaces the historical [][]halfEdge adjacency — one slice header and
// one allocation per node, neighbors scattered across the heap — with
// three contiguous arrays, so a Dijkstra sweep walks memory linearly and
// the per-half-edge footprint drops from 24 bytes (padded struct) to 12.
// m records the edge count at build time: the layout is immutable and a
// later AddEdge simply makes it stale (see Graph.csr).
type csrAdj struct {
	m   int
	off []int32   // n+1 offsets into to/w
	to  []int32   // 2m neighbor ids
	w   []float64 // 2m edge weights, aligned with to

	// wmin/wmax summarise the edge-weight profile at build time: wmin is
	// the smallest positive weight (+Inf when none), wmax the largest.
	// The bucketed SSSP kernel reads them to pick its bucket width and to
	// decide whether bucketing is profitable at all (see canBucket).
	wmin, wmax float64
}

// Graph is a weighted undirected graph with a fixed node count.
// The zero value is not usable; construct with New.
//
// Adjacency is served in CSR form, built lazily on first traversal and
// rebuilt transparently if edges were added since (AddEdge only appends
// to the edge list). Concurrent traversals are safe once construction is
// done; mutating the graph concurrently with traversals is not.
type Graph struct {
	n     int
	edges []Edge

	adjMu    sync.Mutex
	adjCache atomic.Pointer[csrAdj]
}

// New returns an empty graph on n nodes (0..n-1).
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Graph{n: n}
}

// maxCSR bounds node and half-edge counts to what int32 CSR indices can
// address; a graph beyond it would need >16 GiB of adjacency anyway.
const maxCSR = 1<<31 - 2

// csr returns the graph's compacted adjacency, building it on first use
// and rebuilding it when edges were added since the last build. The
// returned layout is immutable; lock-free on the steady-state path.
func (g *Graph) csr() *csrAdj {
	if c := g.adjCache.Load(); c != nil && c.m == len(g.edges) {
		return c
	}
	g.adjMu.Lock()
	defer g.adjMu.Unlock()
	if c := g.adjCache.Load(); c != nil && c.m == len(g.edges) {
		return c
	}
	if g.n > maxCSR || len(g.edges) > maxCSR/2 {
		panic("graph: graph too large for CSR adjacency")
	}
	c := &csrAdj{
		m:    len(g.edges),
		off:  make([]int32, g.n+1),
		to:   make([]int32, 2*len(g.edges)),
		w:    make([]float64, 2*len(g.edges)),
		wmin: math.Inf(1),
	}
	for _, e := range g.edges {
		c.off[e.U+1]++
		c.off[e.V+1]++
		if e.W > 0 && e.W < c.wmin {
			c.wmin = e.W
		}
		if e.W > c.wmax {
			c.wmax = e.W
		}
	}
	for v := 0; v < g.n; v++ {
		c.off[v+1] += c.off[v]
	}
	// Fill with a moving per-node cursor; iterating edges in insertion
	// order keeps each node's neighbor order identical to the historical
	// adjacency lists, so every tie-break downstream is unchanged.
	cursor := make([]int32, g.n)
	copy(cursor, c.off[:g.n])
	for _, e := range g.edges {
		i := cursor[e.U]
		c.to[i], c.w[i] = int32(e.V), e.W
		cursor[e.U]++
		j := cursor[e.V]
		c.to[j], c.w[j] = int32(e.U), e.W
		cursor[e.V]++
	}
	g.adjCache.Store(c)
	return c
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// Edges returns the edge list. The caller must not modify it.
func (g *Graph) Edges() []Edge { return g.edges }

// AddEdge inserts an undirected edge {u, v} with cost w and returns its id.
// Self loops and negative weights are rejected.
func (g *Graph) AddEdge(u, v int, w float64) int {
	if u == v {
		panic(fmt.Sprintf("graph: self loop at node %d", u))
	}
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: edge {%d,%d} out of range [0,%d)", u, v, g.n))
	}
	if w < 0 || math.IsNaN(w) {
		panic(fmt.Sprintf("graph: invalid edge weight %v", w))
	}
	id := len(g.edges)
	g.edges = append(g.edges, Edge{U: u, V: v, W: w})
	return id
}

// Degree returns the number of edges incident to v.
func (g *Graph) Degree(v int) int {
	c := g.csr()
	return int(c.off[v+1] - c.off[v])
}

// MaxDegree returns the maximum node degree, 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	c := g.csr()
	max := int32(0)
	for v := 0; v < g.n; v++ {
		if d := c.off[v+1] - c.off[v]; d > max {
			max = d
		}
	}
	return int(max)
}

// Neighbors calls fn for every edge incident to v, passing the neighbor and
// the edge weight. Iteration order is insertion order.
func (g *Graph) Neighbors(v int, fn func(u int, w float64)) {
	c := g.csr()
	for i, end := c.off[v], c.off[v+1]; i < end; i++ {
		fn(int(c.to[i]), c.w[i])
	}
}

// NeighborList returns the neighbors of v with edge weights as a fresh slice.
func (g *Graph) NeighborList(v int) []Edge {
	c := g.csr()
	out := make([]Edge, 0, c.off[v+1]-c.off[v])
	for i, end := c.off[v], c.off[v+1]; i < end; i++ {
		out = append(out, Edge{U: v, V: int(c.to[i]), W: c.w[i]})
	}
	return out
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	for _, e := range g.edges {
		c.AddEdge(e.U, e.V, e.W)
	}
	return c
}

// Connected reports whether the graph is connected. The empty graph and the
// single-node graph are connected.
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	c := g.csr()
	seen := make([]bool, g.n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for i, end := c.off[v], c.off[v+1]; i < end; i++ {
			if u := int(c.to[i]); !seen[u] {
				seen[u] = true
				count++
				stack = append(stack, u)
			}
		}
	}
	return count == g.n
}

// IsTree reports whether the graph is a tree (connected, n-1 edges).
func (g *Graph) IsTree() bool {
	return g.n >= 1 && len(g.edges) == g.n-1 && g.Connected()
}

// UnweightedDiameter returns the maximum number of edges on any shortest
// (hop-count) path between two nodes, i.e. diam(T) in the paper's notation.
// It returns 0 for graphs with fewer than two nodes and -1 if disconnected.
func (g *Graph) UnweightedDiameter() int {
	if g.n <= 1 {
		return 0
	}
	c := g.csr()
	diam := 0
	dist := make([]int, g.n)
	queue := make([]int, 0, g.n)
	for s := 0; s < g.n; s++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		queue = queue[:0]
		queue = append(queue, s)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for i, end := c.off[v], c.off[v+1]; i < end; i++ {
				if u := int(c.to[i]); dist[u] < 0 {
					dist[u] = dist[v] + 1
					queue = append(queue, u)
				}
			}
		}
		for _, d := range dist {
			if d < 0 {
				return -1
			}
			if d > diam {
				diam = d
			}
		}
	}
	return diam
}

// SortedEdges returns the edges sorted by ascending weight (ties by id),
// without modifying the graph.
func (g *Graph) SortedEdges() []Edge {
	es := make([]Edge, len(g.edges))
	copy(es, g.edges)
	sort.SliceStable(es, func(i, j int) bool { return es[i].W < es[j].W })
	return es
}
