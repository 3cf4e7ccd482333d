// Package metric provides the metric-space view of a network's transmission
// costs and the request-radius machinery of Section 2.1 of the paper: the
// average distance d(v, z) to the z closest requests, the write radius
// rw(v), and the storage radius rs(v) with its storage number zs(v).
//
// Distances are served through the pluggable Oracle interface with three
// backends: Space (dense matrix, the historical representation), Lazy
// (per-source rows computed on demand behind a bounded LRU cache), and
// TreeMetric (O(1) LCA distances on tree networks). The radius machinery is
// written against nearest-first scans, so on lazy backends it only pays for
// the ball each node actually needs instead of a full sorted row.
package metric

import (
	"math"
)

// Space is a finite metric space over nodes 0..N-1, given by a dense
// distance matrix — the Oracle backend of choice for small networks, where
// Θ(n²) memory is cheap and every query is an array read. It is typically
// the shortest-path closure of a network's edge fees ct (see
// graph.AllPairs), which the paper shows is a metric.
type Space struct {
	D [][]float64
}

// New wraps a dense distance matrix. The matrix is not copied.
func New(d [][]float64) *Space { return &Space{D: d} }

// N returns the number of points.
func (s *Space) N() int { return len(s.D) }

// Dist returns the distance between u and v.
func (s *Space) Dist(u, v int) float64 { return s.D[u][v] }

// Row returns the distance row of u. Callers must not modify it.
func (s *Space) Row(u int) []float64 { return s.D[u] }

// Kind reports the dense backend.
func (s *Space) Kind() Kind { return KindDense }

// NearestOfInto returns, for every node, the distance to the nearest
// member of sources, writing into dst (length n): one row fold per source,
// no allocation.
func (s *Space) NearestOfInto(sources []int, dst []float64) []float64 {
	for v := range dst {
		dst[v] = math.Inf(1)
	}
	for _, src := range sources {
		row := s.D[src]
		for v, d := range row {
			if d < dst[v] {
				dst[v] = d
			}
		}
	}
	return dst
}

// Check verifies the metric axioms up to tolerance eps: non-negativity,
// identity, symmetry, and the triangle inequality. It returns false on the
// first violation. O(n^3); intended for tests.
func (s *Space) Check(eps float64) bool {
	n := s.N()
	for i := 0; i < n; i++ {
		if s.D[i][i] != 0 {
			return false
		}
		for j := 0; j < n; j++ {
			if s.D[i][j] < 0 || math.Abs(s.D[i][j]-s.D[j][i]) > eps {
				return false
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				if s.D[i][j] > s.D[i][k]+s.D[k][j]+eps {
					return false
				}
			}
		}
	}
	return true
}

// Requests is the per-node request multiset for one object: Count[u] is the
// number of requests issued at node u (for the radius definitions this is
// fr(u) + fw(u), since a restricted placement does not differentiate reads
// from the read-component of writes).
type Requests struct {
	Count []int64
}

// Total returns the total number of requests.
func (r Requests) Total() int64 {
	var t int64
	for _, c := range r.Count {
		t += c
	}
	return t
}

// Radii holds, for one node v, the quantities defined in Section 2.1.
type Radii struct {
	// RW is the write radius rw(v) = d(v, W): the average distance from v
	// to the W closest requests, W being the total write count.
	RW float64
	// RS is the storage radius rs(v) and ZS the storage number zs(v),
	// chosen such that (zs-1)*rs <= cs(v) < zs*rs and
	// d(v, zs-1) <= rs < d(v, zs).
	RS float64
	ZS int64
}

// AvgDist computes d(v, z): the average distance from v to the z distinct
// requests closest to v. z must satisfy 0 <= z <= total requests; d(v, 0)
// is defined as 0. The scan stops as soon as z requests are gathered.
func AvgDist(o Oracle, req Requests, v int, z int64) float64 {
	if z == 0 {
		return 0
	}
	sum, taken := 0.0, int64(0)
	ScanNear(o, v, func(u int, d float64) bool {
		c := req.Count[u]
		if c == 0 {
			return true
		}
		take := c
		if taken+take > z {
			take = z - taken
		}
		sum += float64(take) * d
		taken += take
		return taken < z
	})
	if taken < z {
		panic("metric: AvgDist z exceeds total requests")
	}
	return sum / float64(z)
}

// ComputeRadii evaluates rw, rs and zs for every node. writes is the total
// write count W for the object; req is the full request multiset
// (fr + fw per node); cs is the per-node storage fee.
//
// The choice of zs and rs follows the paper exactly: pick zs such that
// (zs-1) * d(v, zs-1) <= cs(v) < zs * d(v, zs), then pick rs in
// [d(v, zs-1), d(v, zs)) satisfying (zs-1)*rs <= cs(v) < zs*rs.
// If no finite zs exists (cs so large that even all requests are too few),
// zs is set past the total request count and rs to the largest average
// distance, which makes the node maximally unattractive for extra copies.
//
// Each node's scan terminates as soon as both radii are resolved, so on a
// lazy backend the cost per node is the request ball around it, not Θ(n).
// Scratch comes from a pooled Workspace, so steady-state calls allocate
// only the returned slice.
func ComputeRadii(o Oracle, req Requests, writes int64, cs []float64) []Radii {
	out := make([]Radii, o.N())
	ws := wsPool.Get().(*Workspace)
	copy(out, ws.ComputeRadii(o, req, writes, cs))
	putWorkspace(ws)
	return out
}

// radiiState carries the accumulators of one per-node radii scan: the scan
// walks requests in ascending distance from v, maintaining z (count so
// far) and sum (distance mass so far), so d(v, z) = sum / z at every
// prefix. The write-radius and storage-number prefixes are tracked in the
// same pass; the scan stops once both are resolved. It lives in the
// Workspace so the callback reading it is built once, not per node.
type radiiState struct {
	req       Requests
	writes    int64
	storeCost float64

	// Write radius accumulation toward d(v, W).
	rw      float64
	rwSum   float64
	rwTaken int64
	rwDone  bool
	// Storage-number accumulation: zs is the smallest z whose distance
	// prefix sum exceeds cs(v), because z * d(v, z) = (prefix sum of the z
	// smallest request distances).
	z     int64
	sum   float64
	lastD float64
	found bool
}

// step consumes one scanned node; it is the ScanNear callback body.
func (st *radiiState) step(u int, d float64) bool {
	c := st.req.Count[u]
	if c == 0 {
		return true
	}
	if !st.rwDone {
		take := c
		if st.rwTaken+take > st.writes {
			take = st.writes - st.rwTaken
		}
		st.rwSum += float64(take) * d
		st.rwTaken += take
		if st.rwTaken == st.writes {
			st.rw = st.rwSum / float64(st.writes)
			st.rwDone = true
		}
	}
	if !st.found {
		// Requests arrive c at a time at distance d; we need the
		// smallest z' with z' * d(v, z') > cs, i.e. sum + k*d > cs
		// => k > (cs - sum) / d (for d > 0).
		if d == 0 {
			st.z += c
		} else {
			var k int64
			if st.sum > st.storeCost {
				k = 1
			} else {
				k = int64(math.Floor((st.storeCost-st.sum)/d)) + 1
			}
			if k <= c {
				st.z += k
				st.sum += float64(k) * d
				st.lastD = d
				st.found = true
			} else {
				st.z += c
				st.sum += float64(c) * d
			}
		}
	}
	return !(st.rwDone && st.found)
}

// finalize derives the Radii from a completed scan.
func (st *radiiState) finalize(total int64, storeCost float64) Radii {
	r := Radii{RW: st.rw}
	if !st.found {
		// cs(v) >= z * d(v, z) for all feasible z: no finite storage number.
		// Use zs = total+1 sentinel and rs = d(v, total) so that
		// 5*rs-style thresholds stay meaningful and maximal.
		r.ZS = total + 1
		if total > 0 {
			r.RS = st.sum / float64(total)
		}
		return r
	}
	z := st.z
	r.ZS = z
	// rs in [d(v, zs-1), d(v, zs)) with (zs-1)*rs <= cs < zs*rs.
	dz := st.sum / float64(z) // d(v, zs)
	var dzm float64           // d(v, zs-1): drop the last request taken, at lastD.
	if z > 1 {
		dzm = (st.sum - st.lastD) / float64(z-1)
	}
	// Feasible interval for rs: [max(dzm, cs/zs-epsilonish), min(dz, cs/(zs-1))].
	lo := dzm
	if z > 0 {
		if lb := storeCost / float64(z); lb > lo {
			// need cs < zs*rs, i.e. rs > cs/zs
			lo = math.Nextafter(lb, math.Inf(1))
		}
	}
	hi := dz
	if z > 1 {
		if ub := storeCost / float64(z-1); ub < hi {
			// need (zs-1)*rs <= cs, i.e. rs <= cs/(zs-1)
			hi = ub
		}
	}
	if lo > hi {
		// Numerical corner: collapse to hi (satisfies the paper's intent).
		lo = hi
	}
	r.RS = lo
	return r
}
