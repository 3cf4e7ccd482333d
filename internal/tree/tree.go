// Package tree implements the paper's Section 3: an algorithm computing an
// optimal placement for the static data management problem on trees in time
// O(|X| * |V| * diam(T) * log(deg(T))).
//
// The dynamic program maintains, per subtree Tv, the paper's sufficient set
// of placements:
//
//   - import tuples under "no copy outside Tv" (the paper's I_R_v family),
//   - import tuples under "a copy exists outside Tv" (the J_R_v family),
//   - export placements as a concave piecewise-linear lower envelope over
//     the outside-copy distance D (the E_D_v family with its optimality
//     intervals, Claims 15/16),
//   - the single empty placement E_v.
//
// Write costs follow Section 3's model — a write at v costs the minimal
// subtree spanning the copies and v — using an edge-local accounting: edge e
// carries write traffic W (the global write count) if copies lie on both
// sides, W - W_below(e) if all copies are below e, and W_below(e) if none
// are. Summing ct(e) times that weight over all edges equals
// sum_w fw(w) * steiner(S ∪ {w}); this identity is what lets each combine
// step remain local (it plays the role of the paper's cost^0_W / cost^1_W
// split).
//
// Arbitrary trees are binarised with balanced gadgets of virtual
// (non-storable, request-free) nodes joined by zero-cost edges, giving the
// paper's O(|T|) nodes and O(diam * log deg) depth.
package tree

import (
	"fmt"

	"netplace/internal/graph"
)

// Tree is a rooted, binarised view of a tree network, ready for the DP.
type Tree struct {
	// Original tree and root.
	G    *graph.Graph
	Root int

	// Binarised structure: nodes 0..BN-1; original node v maps to binOf[v];
	// virtual nodes have orig[b] == -1.
	BN       int
	orig     []int // bin node -> original node or -1
	binOf    []int // original node -> bin node
	parent   []int // bin parent (-1 at root)
	pw       []float64
	children [][]int // at most 2 per bin node
	order    []int   // topological order, parents first
}

// Build roots the tree graph g at root and binarises it. It panics if g is
// not a tree.
func Build(g *graph.Graph, root int) *Tree {
	if !g.IsTree() {
		panic("tree: Build on non-tree graph")
	}
	n := g.N()
	t := &Tree{G: g, Root: root, binOf: make([]int, n)}
	parent, _, order := g.TreeParents(root)

	// children lists in the original tree with edge weights
	type cw struct {
		c int
		w float64
	}
	kids := make([][]cw, n)
	for _, v := range order {
		if parent[v] >= 0 {
			// find edge weight via adjacency scan
			w := 0.0
			g.Neighbors(v, func(u int, ew float64) {
				if u == parent[v] {
					w = ew
				}
			})
			kids[parent[v]] = append(kids[parent[v]], cw{c: v, w: w})
		}
	}

	newBin := func(origNode int) int {
		id := t.BN
		t.BN++
		t.orig = append(t.orig, origNode)
		t.parent = append(t.parent, -1)
		t.pw = append(t.pw, 0)
		t.children = append(t.children, nil)
		if origNode >= 0 {
			t.binOf[origNode] = id
		}
		return id
	}
	link := func(p, c int, w float64) {
		t.parent[c] = p
		t.pw[c] = w
		t.children[p] = append(t.children[p], c)
	}

	// attach hangs the original children list under bin node bp using a
	// balanced binary gadget of virtual nodes.
	var attach func(bp int, list []cw)
	var buildSub func(v int) int
	attach = func(bp int, list []cw) {
		switch len(list) {
		case 0:
			return
		case 1:
			link(bp, buildSub(list[0].c), list[0].w)
		case 2:
			link(bp, buildSub(list[0].c), list[0].w)
			link(bp, buildSub(list[1].c), list[1].w)
		default:
			mid := len(list) / 2
			l := newBin(-1)
			link(bp, l, 0)
			attach(l, list[:mid])
			r := newBin(-1)
			link(bp, r, 0)
			attach(r, list[mid:])
		}
	}
	buildSub = func(v int) int {
		b := newBin(v)
		attach(b, kids[v])
		return b
	}
	rb := buildSub(root)
	if rb != 0 {
		panic("tree: root bin id must be 0")
	}

	// topological order (parents first) over bin nodes: ids are assigned
	// parent-before-child by construction, so identity order works.
	t.order = make([]int, t.BN)
	for i := range t.order {
		t.order[i] = i
	}
	return t
}

// Validate cross-checks internal invariants; used by tests.
func (t *Tree) Validate() error {
	for b := 0; b < t.BN; b++ {
		if len(t.children[b]) > 2 {
			return fmt.Errorf("tree: bin node %d has %d children", b, len(t.children[b]))
		}
		for _, c := range t.children[b] {
			if t.parent[c] != b {
				return fmt.Errorf("tree: parent mismatch at %d", c)
			}
			if c <= b {
				return fmt.Errorf("tree: child id %d not greater than parent %d", c, b)
			}
		}
	}
	seen := make(map[int]bool)
	for b := 0; b < t.BN; b++ {
		if v := t.orig[b]; v >= 0 {
			if seen[v] {
				return fmt.Errorf("tree: original node %d appears twice", v)
			}
			seen[v] = true
		}
	}
	if len(seen) != t.G.N() {
		return fmt.Errorf("tree: %d of %d original nodes mapped", len(seen), t.G.N())
	}
	return nil
}
