// Package netplace is a library for cost-based static data management in
// networks, reproducing Krick, Räcke and Westermann, "Approximation
// Algorithms for Data Management in Networks" (SPAA 2001).
//
// A network is an undirected graph whose edges carry transmission fees and
// whose nodes carry storage fees. For every shared object, each node issues
// read and write requests with known frequencies. The library computes
// placements of object copies minimising total cost = storage + reads to
// the nearest copy + write accesses + multicast updates:
//
//   - Solve runs the paper's combinatorial constant-factor approximation
//     for arbitrary networks (facility location phase, storage-radius
//     augmentation, write-radius thinning);
//   - SolveTree runs the paper's optimal O(|X|·|V|·diam·log deg) dynamic
//     program when the network is a tree;
//   - FullReplication, SingleBest, GreedyAdd and FacilityOnly are baseline
//     strategies; Cost evaluates any placement; Simulate replays the
//     request pattern message-by-message and meters the same costs.
//
// Beyond the in-process API, cmd/netplaced serves the same algorithms as a
// long-running HTTP/JSON service (instance registry, solve cache, batched
// what-if queries); the wire types it speaks — InstanceJSON, PlacementJSON
// and friends — are re-exported here so client code can build payloads
// without reaching into internal packages.
//
// See the examples/ directory for end-to-end usage, ARCHITECTURE.md for
// the layer map, and EXPERIMENTS.md for the evaluation reproducing the
// paper's guarantees.
package netplace

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"netplace/internal/core"
	"netplace/internal/encode"
	"netplace/internal/facility"
	"netplace/internal/metric"
	"netplace/internal/netsim"
	"netplace/internal/online"
	"netplace/internal/tree"
	"netplace/internal/workload"
)

// Re-exported model types. Instance describes a network plus workload,
// Object one shared object's request frequencies, Placement a copy set per
// object, Breakdown a cost decomposition, and Options the approximation
// algorithm's tuning knobs.
type (
	Instance  = core.Instance
	Object    = core.Object
	Placement = core.Placement
	Breakdown = core.Breakdown
	Options   = core.Options
)

// NewInstance assembles and validates an instance from a connected network
// graph (see the graph sub-API via Builder functions), per-node storage
// fees, and per-object request frequencies.
var NewInstance = core.NewInstance

// MetricBackend selects the distance-oracle backend behind an instance's
// shortest-path metric (Options.Metric). The default, MetricAuto, picks a
// dense matrix for small networks, the O(1) LCA oracle for large tree
// networks, and a lazily computed row cache for everything bigger — so
// placements on 50k+-node sparse networks never materialize the Θ(n²)
// all-pairs matrix.
type MetricBackend = core.MetricBackend

// Distance-oracle backends for Options.Metric.
const (
	MetricAuto  = core.MetricAuto
	MetricDense = core.MetricDense
	MetricLazy  = core.MetricLazy
	MetricTree  = core.MetricTree
)

// Solve runs the paper's approximation algorithm with default parameters:
// the 5·rs and 4·rw thresholds of Section 2.2, with the phase-1 facility
// solver auto-selected by size (local search up to 2048 nodes, the
// ball-scanning Mettu–Plaxton beyond — see Options.FL).
func Solve(in *Instance) Placement {
	return core.Approximate(in, core.Options{})
}

// SolveWithOptions runs the approximation algorithm with explicit options.
func SolveWithOptions(in *Instance, opt Options) Placement {
	return core.Approximate(in, opt)
}

// SolveTree computes an exact optimal placement on tree networks using the
// Section 3 dynamic program. It returns an error if the network is not a
// tree or if any per-object solve produces an ill-formed result. Costs
// follow the Section 3 model in which a write pays the minimal subtree
// spanning the copies and the writer.
func SolveTree(in *Instance) (Placement, error) {
	if !in.G.IsTree() {
		return Placement{}, fmt.Errorf("netplace: network with %d nodes / %d edges is not a tree", in.G.N(), in.G.M())
	}
	t := tree.Build(in.G, 0)
	p := Placement{Copies: make([][]int, len(in.Objects))}
	costs := make([]float64, len(in.Objects))
	// Objects are independent (the paper solves them one at a time); fan
	// out across GOMAXPROCS workers. The Tree structure is read-only
	// during Solve, so sharing it is safe.
	metric.Shard(len(in.Objects), 1, -1, func(claim func() (int, int, bool)) {
		for {
			i, _, ok := claim()
			if !ok {
				return
			}
			obj := &in.Objects[i]
			p.Copies[i], costs[i] = t.Solve(in.Storage, obj.Reads, obj.Writes)
		}
	})
	// The DP's optimum is a witness for each result; an empty copy set or a
	// non-finite cost means the solve failed and must not pass silently.
	for i := range in.Objects {
		if len(p.Copies[i]) == 0 || math.IsInf(costs[i], 0) || math.IsNaN(costs[i]) {
			return Placement{}, fmt.Errorf("netplace: tree DP failed on object %d (%d copies, cost %v)",
				i, len(p.Copies[i]), costs[i])
		}
	}
	return p, nil
}

// Request re-exports the online request event type.
type Request = workload.Request

// OnlineStats aggregates a dynamic-strategy run.
type OnlineStats = online.Stats

// DrawSequence samples a request sequence whose empirical frequencies
// follow the instance's fr/fw tables — the input of the dynamic strategy.
func DrawSequence(in *Instance, length int, rng *rand.Rand) []Request {
	return workload.Sequence(in.Objects, length, rng)
}

// SolveOnline replays a request sequence with the dynamic count-based
// strategy (replicate on read-traffic threshold, invalidate idle replicas
// on writes) that sees requests one at a time; see internal/online and
// experiment E13 for how it compares against the frequency-aware static
// algorithm.
func SolveOnline(in *Instance, seq []Request) OnlineStats {
	return online.Run(in, seq, online.DefaultConfig())
}

// SequenceCost prices a static placement against a concrete request
// sequence with the same accounting the online strategy uses, making the
// two directly comparable.
func SequenceCost(in *Instance, p Placement, seq []Request) float64 {
	return online.StaticCost(in, p, seq)
}

// TreeCost evaluates a placement under the Section 3 tree cost model.
func TreeCost(in *Instance, p Placement) (float64, error) {
	if !in.G.IsTree() {
		return 0, fmt.Errorf("netplace: network is not a tree")
	}
	if err := p.Validate(in); err != nil {
		return 0, err
	}
	total := 0.0
	for i := range in.Objects {
		obj := &in.Objects[i]
		total += obj.Scale() * tree.ObjectCost(in.G, in.Storage, obj.Reads, obj.Writes, p.Copies[i])
	}
	return total, nil
}

// Cost evaluates a placement under the Section 2 (restricted) cost model:
// storage + nearest-copy reads and write accesses + W·MST multicast.
func Cost(in *Instance, p Placement) Breakdown { return in.Cost(p) }

// Baseline strategies (see EXPERIMENTS.md, experiment E5).
var (
	FullReplication = core.FullReplication
	SingleBest      = core.SingleBest
	GreedyAdd       = core.GreedyAdd
)

// FacilityOnly ignores update costs and solves the related facility
// location problem only (phase 1 of the approximation algorithm).
func FacilityOnly(in *Instance) Placement {
	return core.FacilityOnly(in, facility.LocalSearch)
}

// FacilitySolvers exposes the combinatorial UFL algorithms for use with
// Options.FL: "local-search", "jain-vazirani", "mettu-plaxton", "greedy".
func FacilitySolvers() map[string]facility.Solver {
	return map[string]facility.Solver{
		"local-search":  facility.LocalSearch,
		"jain-vazirani": facility.JainVazirani,
		"mettu-plaxton": facility.MettuPlaxton,
		"greedy":        facility.Greedy,
	}
}

// Wire-format types (the JSON schema shared by the cmd/placer and
// cmd/gennet files and the cmd/netplaced HTTP service): InstanceJSON is an
// on-disk/on-wire problem, EdgeJSON and ObjectJSON its parts, and
// PlacementJSON a copy set per object name.
type (
	InstanceJSON  = encode.InstanceJSON
	EdgeJSON      = encode.EdgeJSON
	ObjectJSON    = encode.ObjectJSON
	PlacementJSON = encode.PlacementJSON
)

// EncodeInstance converts an instance to its wire form; the inverse is
// InstanceJSON.Instance, which validates and assembles the model type.
func EncodeInstance(in *Instance) InstanceJSON { return encode.InstanceJSONOf(in) }

// EncodePlacement converts a validated placement to its wire form, keyed
// by object name; the inverse is PlacementJSON.Placement.
func EncodePlacement(in *Instance, p Placement) (PlacementJSON, error) {
	return encode.PlacementJSONOf(in, p)
}

// HashInstance returns the stable content hash of an instance — the
// identity under which the placement service registers and caches it.
func HashInstance(in *Instance) string { return encode.HashInstance(in) }

// WriteInstance serialises an instance as indented JSON.
func WriteInstance(w io.Writer, in *Instance) error { return encode.WriteInstance(w, in) }

// WritePlacement serialises a placement using the instance's object names.
func WritePlacement(w io.Writer, in *Instance, p Placement) error {
	return encode.WritePlacement(w, in, p)
}

// ReadInstance deserialises and validates an instance from JSON.
func ReadInstance(r io.Reader) (*Instance, error) { return encode.ReadInstance(r) }

// ReadPlacement deserialises a placement against an instance.
func ReadPlacement(r io.Reader, in *Instance) (Placement, error) {
	return encode.ReadPlacement(r, in)
}

// SimulationStats aggregates a message-level replay.
type SimulationStats = netsim.Stats

// Simulate replays the instance's full request pattern against a placement
// in a discrete-event, hop-by-hop network simulation and returns the
// metered costs; Stats.Total() equals Cost(in, p).Total() by construction
// (experiment E12 asserts this).
func Simulate(in *Instance, p Placement) (SimulationStats, error) {
	s, err := netsim.New(in, p)
	if err != nil {
		return SimulationStats{}, err
	}
	return s.Run(), nil
}
