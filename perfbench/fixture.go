package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"netplace/internal/benchkit"
	"netplace/internal/core"
	"netplace/internal/encode"
	"netplace/internal/service"
)

// objects is the object count of every workload's instance: the shape of
// benchkit.ResidentInstance(8), a 2500-node grid with Zipf demand.
const objects = 8

// residentWire is the fixed resident instance in wire form. The instance
// itself does not depend on --seed; the seed picks the operations.
func residentWire() encode.InstanceJSON {
	return encode.InstanceJSONOf(benchkit.ResidentInstance(objects))
}

// uploadBody is the POST /instances body for an instance.
func uploadBody(name string, ij encode.InstanceJSON) ([]byte, error) {
	return json.Marshal(service.UploadRequest{Name: name, Instance: ij})
}

// decoded rebuilds an instance from its wire form, so in-process solves
// see exactly what the server decoded, with the same auto-selected
// distance oracle.
func decoded(ij encode.InstanceJSON) (*core.Instance, error) {
	b, err := json.Marshal(ij)
	if err != nil {
		return nil, err
	}
	var back encode.InstanceJSON
	if err := json.Unmarshal(b, &back); err != nil {
		return nil, err
	}
	return back.Instance()
}

// perturbReads returns a copy of reads with extra read requests at a
// few seeded nodes, so the demand (and the instance hash) is new.
func perturbReads(reads []int64, rng *rand.Rand, nodes int) []int64 {
	out := append([]int64(nil), reads...)
	for j := 0; j < nodes; j++ {
		out[rng.Intn(len(out))] += 1 + rng.Int63n(4)
	}
	return out
}

// placementBytes is the canonical JSON of a wire placement (map keys
// sorted), the unit of byte-equality checks.
func placementBytes(pj encode.PlacementJSON) []byte {
	b, err := json.Marshal(pj)
	if err != nil {
		panic(err) // a map of int slices always marshals
	}
	return b
}

// expectPlacement solves in process and returns the wire placement
// bytes and the Section 2 total cost.
func expectPlacement(in *core.Instance, p core.Placement) ([]byte, float64, error) {
	pj, err := encode.PlacementJSONOf(in, p)
	if err != nil {
		return nil, 0, err
	}
	return placementBytes(pj), in.Cost(p).Total(), nil
}

// checkProper asserts Lemma 8's proper-placement constants for one
// object's copy set: every node has a copy within 29·max(rw, rs), and
// copies are pairwise at least 4·max(rw) apart.
func checkProper(in *core.Instance, obj *core.Object, copies []int) error {
	rep := in.CheckProper(obj, copies)
	if rep.MaxK1 > 29+1e-9 || rep.MinPairFactor < 4-1e-9 {
		return fmt.Errorf("object %s: not proper (k1 %.3f, pair factor %.3f)", obj.Name, rep.MaxK1, rep.MinPairFactor)
	}
	return nil
}
