package graph

// UnionFind is a disjoint-set forest with union by rank and path compression.
type UnionFind struct {
	parent []int
	rank   []byte
}

// NewUnionFind returns a union-find over n singleton sets.
func NewUnionFind(n int) *UnionFind {
	uf := &UnionFind{parent: make([]int, n), rank: make([]byte, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

// Find returns the representative of x's set.
func (uf *UnionFind) Find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]] // path halving
		x = uf.parent[x]
	}
	return x
}

// Union merges the sets of a and b and reports whether they were distinct.
func (uf *UnionFind) Union(a, b int) bool {
	ra, rb := uf.Find(a), uf.Find(b)
	if ra == rb {
		return false
	}
	if uf.rank[ra] < uf.rank[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	if uf.rank[ra] == uf.rank[rb] {
		uf.rank[ra]++
	}
	return true
}

// MSTKruskal returns a minimum spanning tree (forest, if disconnected) as an
// edge list, together with its total weight.
func (g *Graph) MSTKruskal() ([]Edge, float64) {
	es := g.SortedEdges()
	uf := NewUnionFind(g.n)
	var tree []Edge
	total := 0.0
	for _, e := range es {
		if uf.Union(e.U, e.V) {
			tree = append(tree, e)
			total += e.W
			if len(tree) == g.n-1 {
				break
			}
		}
	}
	return tree, total
}

// MetricMST computes the weight of a minimum spanning tree over the point
// set `points` under the dense metric `dist` (dist[i][j] indexed by node
// ids). This is the paper's multicast-tree cost for updating all copies: a
// minimum spanning tree in the metric closure connecting the copy set.
// Runs Prim in O(k^2) for k = len(points). Returns 0 for k <= 1.
func MetricMST(dist [][]float64, points []int) float64 {
	k := len(points)
	if k <= 1 {
		return 0
	}
	const unreached = -1
	inTree := make([]bool, k)
	best := make([]float64, k)
	for i := range best {
		best[i] = Inf
	}
	inTree[0] = true
	for j := 1; j < k; j++ {
		best[j] = dist[points[0]][points[j]]
	}
	total := 0.0
	for it := 1; it < k; it++ {
		sel := unreached
		for j := 0; j < k; j++ {
			if !inTree[j] && (sel == unreached || best[j] < best[sel]) {
				sel = j
			}
		}
		total += best[sel]
		inTree[sel] = true
		for j := 0; j < k; j++ {
			if !inTree[j] {
				if d := dist[points[sel]][points[j]]; d < best[j] {
					best[j] = d
				}
			}
		}
	}
	return total
}

// TreeParents roots a tree graph at root and returns for each node its
// parent (-1 for root), the weight of the edge to the parent, and a
// topological order (parents before children). Panics if g is not a tree.
func (g *Graph) TreeParents(root int) (parent []int, pw []float64, order []int) {
	if !g.IsTree() {
		panic("graph: TreeParents on non-tree")
	}
	parent = make([]int, g.n)
	pw = make([]float64, g.n)
	order = make([]int, 0, g.n)
	seen := make([]bool, g.n)
	stack := []int{root}
	seen[root] = true
	parent[root] = -1
	c := g.csr()
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order = append(order, v)
		for i, end := c.off[v], c.off[v+1]; i < end; i++ {
			if u := int(c.to[i]); !seen[u] {
				seen[u] = true
				parent[u] = v
				pw[u] = c.w[i]
				stack = append(stack, u)
			}
		}
	}
	return parent, pw, order
}

// SubtreeSteiner returns the total edge weight of the minimal subtree of the
// tree g spanning the terminal set. On a tree the minimal Steiner tree is
// unique: the union of pairwise paths. Computed by pruning leaves that are
// not terminals. Returns 0 when len(terminals) <= 1.
func (g *Graph) SubtreeSteiner(terminals []int) float64 {
	if !g.IsTree() {
		panic("graph: SubtreeSteiner on non-tree")
	}
	if len(terminals) <= 1 {
		return 0
	}
	isTerm := make([]bool, g.n)
	for _, t := range terminals {
		isTerm[t] = true
	}
	// Root the tree at a terminal. An edge (v, parent(v)) is in the minimal
	// Steiner subtree iff v's subtree contains a terminal: the root is a
	// terminal, so there is always a terminal on the other side.
	parent, pw, order := g.TreeParents(terminals[0])
	needed := make([]bool, g.n)
	copy(needed, isTerm)
	total := 0.0
	for i := len(order) - 1; i >= 1; i-- { // children before parents
		v := order[i]
		if needed[v] {
			needed[parent[v]] = true
			total += pw[v]
		}
	}
	return total
}
