package tree

import (
	"math"

	"netplace/internal/graph"
)

// ObjectCost evaluates the Section 3 cost of placing one object's copies on
// a tree: storage fees, reads (and nothing else) to the nearest copy, and
// for each write at v the weight of the minimal subtree spanning the copies
// and v. Runs in O(n log n) using the edge-local write accounting.
func ObjectCost(g *graph.Graph, storage []float64, reads, writes []int64, copies []int) float64 {
	if len(copies) == 0 {
		return math.Inf(1)
	}
	total := 0.0
	for _, c := range copies {
		total += storage[c]
	}
	// Reads: nearest copy via multi-source Dijkstra.
	dist := graph.NewScanner(g).NearestInto(copies, make([]float64, g.N()))
	for v, r := range reads {
		if r > 0 {
			total += float64(r) * dist[v]
		}
	}
	// Writes: edge-local rule. Root the tree at copies[0].
	var W float64
	for _, w := range writes {
		W += float64(w)
	}
	if W == 0 {
		return total
	}
	isCopy := make([]bool, g.N())
	for _, c := range copies {
		isCopy[c] = true
	}
	parent, pw, order := g.TreeParents(copies[0])
	wBelow := make([]float64, g.N())
	copiesBelow := make([]int, g.N())
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		wBelow[v] += float64(writes[v])
		if isCopy[v] {
			copiesBelow[v]++
		}
		if p := parent[v]; p >= 0 {
			wBelow[p] += wBelow[v]
			copiesBelow[p] += copiesBelow[v]
		}
	}
	k := len(copies)
	for v := 0; v < g.N(); v++ {
		if parent[v] < 0 {
			continue
		}
		var weight float64
		switch {
		case copiesBelow[v] > 0 && copiesBelow[v] < k:
			weight = W // copies on both sides: every write crosses
		case copiesBelow[v] == k:
			weight = W - wBelow[v] // all copies below: writes above descend
		default:
			weight = wBelow[v] // no copy below: writes below ascend
		}
		total += weight * pw[v]
	}
	return total
}

// ObjectCostSteiner evaluates the same cost by the literal definition —
// summing fw(v) times the spanning-subtree weight of copies ∪ {v} — in
// O(n^2). Used by tests to validate the edge-local accounting.
func ObjectCostSteiner(g *graph.Graph, storage []float64, reads, writes []int64, copies []int) float64 {
	if len(copies) == 0 {
		return math.Inf(1)
	}
	total := 0.0
	for _, c := range copies {
		total += storage[c]
	}
	dist := graph.NewScanner(g).NearestInto(copies, make([]float64, g.N()))
	for v, r := range reads {
		if r > 0 {
			total += float64(r) * dist[v]
		}
	}
	for v, w := range writes {
		if w > 0 {
			terms := append([]int{v}, copies...)
			total += float64(w) * g.SubtreeSteiner(terms)
		}
	}
	return total
}

// BruteForce finds an optimal placement for one object on a tree by
// enumerating all non-empty copy sets. Exponential; n <= ~18.
func BruteForce(g *graph.Graph, storage []float64, reads, writes []int64) ([]int, float64) {
	n := g.N()
	if n > 22 {
		panic("tree: brute force instance too large")
	}
	best := math.Inf(1)
	var bestSet []int
	set := make([]int, 0, n)
	for mask := 1; mask < 1<<n; mask++ {
		set = set[:0]
		for v := 0; v < n; v++ {
			if mask&(1<<v) != 0 {
				set = append(set, v)
			}
		}
		if c := ObjectCost(g, storage, reads, writes, set); c < best {
			best = c
			bestSet = append(bestSet[:0], set...)
		}
	}
	return bestSet, best
}
