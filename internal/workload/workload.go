// Package workload generates request-frequency patterns for the evaluation:
// uniform background load, Zipf-ranked object popularity (WWW pages),
// hotspot locality (a few nodes produce most requests), and read/write
// mixes swept from read-only to write-only.
package workload

import (
	"math"
	"math/rand"

	"netplace/internal/core"
)

// Spec describes one generated workload.
type Spec struct {
	Objects int // number of shared objects
	// MeanRate is the average number of requests per node-object pair.
	MeanRate float64
	// WriteFraction in [0, 1]: expected share of requests that are writes.
	WriteFraction float64
	// ZipfS is the Zipf exponent ranking object popularity; 0 disables
	// popularity skew (all objects equally hot).
	ZipfS float64
	// Hotspot concentrates request mass: fraction in [0,1) of total volume
	// issued by the HotspotNodes busiest nodes. 0 disables.
	Hotspot      float64
	HotspotNodes int
	// SizeSpread > 0 draws per-object sizes from a log-uniform distribution
	// over [1/SizeSpread, SizeSpread] (the paper's non-uniform model);
	// 0 leaves all sizes at the uniform default 1.
	SizeSpread float64
}

// Generate draws the per-object read/write frequencies for an n-node
// network. Frequencies are Poisson-like (rounded exponentials) so that
// instances have integral counts; determinism comes from rng.
func Generate(n int, spec Spec, rng *rand.Rand) []core.Object {
	if spec.Objects < 1 {
		spec.Objects = 1
	}
	objects := make([]core.Object, spec.Objects)
	// Zipf popularity weights per object.
	pop := make([]float64, spec.Objects)
	var popSum float64
	for i := range pop {
		if spec.ZipfS > 0 {
			pop[i] = 1 / math.Pow(float64(i+1), spec.ZipfS)
		} else {
			pop[i] = 1
		}
		popSum += pop[i]
	}
	// Node activity weights (hotspots).
	act := make([]float64, n)
	for v := range act {
		act[v] = 1
	}
	if spec.Hotspot > 0 && spec.HotspotNodes > 0 && spec.HotspotNodes < n {
		perm := rng.Perm(n)
		hot := perm[:spec.HotspotNodes]
		cold := float64(n - spec.HotspotNodes)
		for _, v := range hot {
			act[v] = spec.Hotspot / (1 - spec.Hotspot) * cold / float64(spec.HotspotNodes)
		}
	}
	for i := range objects {
		o := &objects[i]
		o.Name = objName(i)
		o.Reads = make([]int64, n)
		o.Writes = make([]int64, n)
		if spec.SizeSpread > 1 {
			lg := math.Log(spec.SizeSpread)
			o.Size = math.Exp((2*rng.Float64() - 1) * lg)
		}
		// Per node-object rate scaled by popularity and activity so the
		// overall mean matches MeanRate.
		base := spec.MeanRate * pop[i] * float64(spec.Objects) / popSum
		for v := 0; v < n; v++ {
			rate := base * act[v]
			total := drawCount(rng, rate)
			writes := int64(0)
			for k := int64(0); k < total; k++ {
				if rng.Float64() < spec.WriteFraction {
					writes++
				}
			}
			o.Writes[v] = writes
			o.Reads[v] = total - writes
		}
	}
	return objects
}

// drawCount draws a non-negative integer with the given mean using a
// geometric-ish rounded exponential; cheap, deterministic and adequate for
// load generation.
func drawCount(rng *rand.Rand, mean float64) int64 {
	if mean <= 0 {
		return 0
	}
	x := rng.ExpFloat64() * mean
	return int64(math.Round(x))
}

func objName(i int) string {
	const alpha = "abcdefghijklmnopqrstuvwxyz"
	name := []byte{'o', 'b', 'j', '-'}
	if i == 0 {
		return string(append(name, 'a'))
	}
	var digits []byte
	for i > 0 {
		digits = append(digits, alpha[i%26])
		i /= 26
	}
	for k := len(digits) - 1; k >= 0; k-- {
		name = append(name, digits[k])
	}
	return string(name)
}

// Request is one event of a request sequence: node V issues a read or
// write for object Obj.
type Request struct {
	Obj   int
	V     int
	Write bool
}

// Sequence draws a random request sequence of the given length whose
// empirical frequencies follow the objects' fr/fw tables — the dynamic
// (online) counterpart of a static instance. Sampling is proportional
// without replacement-style exhaustion so short sequences remain faithful
// in expectation.
func Sequence(objects []core.Object, length int, rng *rand.Rand) []Request {
	type entry struct {
		req    Request
		weight int64
	}
	var entries []entry
	var total int64
	for oi := range objects {
		o := &objects[oi]
		for v := range o.Reads {
			if o.Reads[v] > 0 {
				entries = append(entries, entry{Request{Obj: oi, V: v}, o.Reads[v]})
				total += o.Reads[v]
			}
			if o.Writes[v] > 0 {
				entries = append(entries, entry{Request{Obj: oi, V: v, Write: true}, o.Writes[v]})
				total += o.Writes[v]
			}
		}
	}
	if total == 0 {
		return nil
	}
	// cumulative weights for O(log k) sampling
	cum := make([]int64, len(entries))
	var run int64
	for i, e := range entries {
		run += e.weight
		cum[i] = run
	}
	out := make([]Request, length)
	for i := 0; i < length; i++ {
		x := rng.Int63n(total)
		lo, hi := 0, len(cum)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] > x {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		out[i] = entries[lo].req
	}
	return out
}

// Uniform returns a single-object workload with every node issuing exactly
// reads reads and writes writes; useful for analytic test cases.
func Uniform(n int, reads, writes int64) []core.Object {
	o := core.Object{Name: "obj-uniform", Reads: make([]int64, n), Writes: make([]int64, n)}
	for v := 0; v < n; v++ {
		o.Reads[v] = reads
		o.Writes[v] = writes
	}
	return []core.Object{o}
}
