package graph

import "math"

// Inf is the distance reported for unreachable nodes.
var Inf = math.Inf(1)

// pqItem is a node with a tentative distance in the Dijkstra priority queue.
type pqItem struct {
	node int
	dist float64
}

// pq is a binary min-heap over tentative distances, driven through the
// concrete push/pop methods below instead of container/heap: the interface
// API boxes every pqItem into its own heap allocation, which used to
// dominate the allocation profile of large sweeps (one 16-byte allocation
// per edge relaxation). Stale entries are allowed and skipped on pop (lazy
// deletion), which is simpler and in practice as fast as decrease-key for
// the sparse graphs used here.
type pq []pqItem

// push inserts an item, sifting it up to its heap position.
func (q *pq) push(it pqItem) {
	s := append(*q, it)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p].dist <= s[i].dist {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
	*q = s
}

// pop removes and returns the minimum item. The queue must be non-empty.
func (q *pq) pop() pqItem {
	s := *q
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && s[r].dist < s[l].dist {
			m = r
		}
		if s[i].dist <= s[m].dist {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	*q = s
	return top
}

// Dijkstra computes single-source shortest path distances from src and the
// predecessor of every node on its shortest path tree (-1 for src and
// unreachable nodes). Distances to unreachable nodes are Inf.
func (g *Graph) Dijkstra(src int) (dist []float64, parent []int) {
	dist = make([]float64, g.n)
	parent = make([]int, g.n)
	for i := range dist {
		dist[i] = Inf
		parent[i] = -1
	}
	dist[src] = 0
	q := pq{{node: src, dist: 0}}
	done := make([]bool, g.n)
	c := g.csr()
	for len(q) > 0 {
		it := q.pop()
		v := it.node
		if done[v] {
			continue
		}
		done[v] = true
		for i, end := c.off[v], c.off[v+1]; i < end; i++ {
			if to := int(c.to[i]); dist[v]+c.w[i] < dist[to] {
				dist[to] = dist[v] + c.w[i]
				parent[to] = v
				q.push(pqItem{node: to, dist: dist[to]})
			}
		}
	}
	return dist, parent
}

// AllPairs computes the full shortest-path distance matrix by running
// Dijkstra from every node: O(n (m + n) log n). For the dense metric view
// used by the placement algorithms this is both the distance function ct and
// the metric closure of the graph.
func (g *Graph) AllPairs() [][]float64 {
	d := make([][]float64, g.n)
	for v := 0; v < g.n; v++ {
		dv, _ := g.Dijkstra(v)
		d[v] = dv
	}
	return d
}
