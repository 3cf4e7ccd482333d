package metric

import (
	"math/bits"

	"netplace/internal/graph"
)

// TreeMetric serves the shortest-path metric of a tree network in O(1) per
// point query after O(n log n) preprocessing: on a tree the unique path
// between u and v passes through their lowest common ancestor, so
// d(u, v) = depth(u) + depth(v) - 2 * depth(lca(u, v)) with weighted
// depths. No distance rows are ever stored, so tree networks of any size
// cost O(n) memory — SolveTree-scale instances never pay Θ(n²).
//
// LCA queries use the Euler-tour + sparse-table scheme (O(1) per query).
type TreeMetric struct {
	scanPool
	g     *graph.Graph
	depth []float64 // weighted depth from the root
	level []int32   // unweighted depth, for LCA minimisation
	first []int     // first occurrence of each node in the Euler tour
	euler []int32   // Euler tour of node ids, len 2n-1
	table [][]int32 // sparse table over euler positions, argmin by level
}

// NewTree builds a TreeMetric over the tree network g. It panics if g is
// not a tree.
func NewTree(g *graph.Graph) *TreeMetric {
	if !g.IsTree() {
		panic("metric: NewTree on non-tree network")
	}
	n := g.N()
	t := &TreeMetric{
		g:     g,
		depth: make([]float64, n),
		level: make([]int32, n),
		first: make([]int, n),
	}
	t.init(g)
	if n == 0 {
		return t
	}
	t.euler = make([]int32, 0, 2*n-1)
	// Root at 0, collect children lists, then run an iterative Euler tour:
	// a frame re-emits its node after each child subtree returns.
	parent, pw, order := g.TreeParents(0)
	kids := make([][]int32, n)
	for _, v := range order {
		if p := parent[v]; p >= 0 {
			kids[p] = append(kids[p], int32(v))
			t.depth[v] = t.depth[p] + pw[v]
			t.level[v] = t.level[p] + 1
		}
	}
	type frame struct {
		node    int32
		nextKid int
	}
	t.first[0] = 0
	t.euler = append(t.euler, 0)
	stack := []frame{{node: 0}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.nextKid < len(kids[f.node]) {
			child := kids[f.node][f.nextKid]
			f.nextKid++
			t.first[child] = len(t.euler)
			t.euler = append(t.euler, child)
			stack = append(stack, frame{node: child})
			continue
		}
		stack = stack[:len(stack)-1]
		if len(stack) > 0 {
			t.euler = append(t.euler, stack[len(stack)-1].node)
		}
	}
	// Sparse table of argmin-by-level over the Euler tour.
	m := len(t.euler)
	levels := bits.Len(uint(m))
	t.table = make([][]int32, levels)
	t.table[0] = t.euler
	for k := 1; k < levels; k++ {
		span := 1 << k
		prev := t.table[k-1]
		cur := make([]int32, m-span+1)
		for i := range cur {
			a, b := prev[i], prev[i+span/2]
			if t.level[a] <= t.level[b] {
				cur[i] = a
			} else {
				cur[i] = b
			}
		}
		t.table[k] = cur
	}
	return t
}

// N returns the number of nodes.
func (t *TreeMetric) N() int { return t.g.N() }

// Kind reports the tree backend.
func (t *TreeMetric) Kind() Kind { return KindTree }

// LCA returns the lowest common ancestor of u and v (with respect to the
// root the metric was built at).
func (t *TreeMetric) LCA(u, v int) int {
	a, b := t.first[u], t.first[v]
	if a > b {
		a, b = b, a
	}
	k := bits.Len(uint(b-a+1)) - 1
	x, y := t.table[k][a], t.table[k][b-(1<<k)+1]
	if t.level[x] <= t.level[y] {
		return int(x)
	}
	return int(y)
}

// Dist returns d(u, v) in O(1) via the LCA depth identity.
func (t *TreeMetric) Dist(u, v int) float64 {
	if u == v {
		return 0
	}
	return t.depth[u] + t.depth[v] - 2*t.depth[t.LCA(u, v)]
}

// Row computes the distance row of u in O(n) point queries. The row is not
// cached; prefer Dist, ScanNear or NearestOf where possible.
func (t *TreeMetric) Row(u int) []float64 {
	n := t.g.N()
	row := make([]float64, n)
	for v := 0; v < n; v++ {
		row[v] = t.Dist(u, v)
	}
	return row
}
