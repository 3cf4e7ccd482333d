package workload

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestGenerateDeterministic(t *testing.T) {
	spec := Spec{Objects: 4, MeanRate: 3, WriteFraction: 0.4, ZipfS: 1.0}
	a := Generate(20, spec, rand.New(rand.NewSource(42)))
	b := Generate(20, spec, rand.New(rand.NewSource(42)))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different workloads")
	}
	c := Generate(20, spec, rand.New(rand.NewSource(43)))
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical workloads")
	}
}

func TestGenerateShapeAndNames(t *testing.T) {
	objs := Generate(12, Spec{Objects: 30, MeanRate: 1}, rand.New(rand.NewSource(1)))
	if len(objs) != 30 {
		t.Fatalf("got %d objects", len(objs))
	}
	seen := map[string]bool{}
	for _, o := range objs {
		if len(o.Reads) != 12 || len(o.Writes) != 12 {
			t.Fatal("frequency vector length wrong")
		}
		if o.Name == "" || seen[o.Name] {
			t.Fatalf("bad or duplicate name %q", o.Name)
		}
		seen[o.Name] = true
		for v := 0; v < 12; v++ {
			if o.Reads[v] < 0 || o.Writes[v] < 0 {
				t.Fatal("negative frequency")
			}
		}
	}
}

func TestWriteFractionRespected(t *testing.T) {
	for _, wf := range []float64{0, 0.5, 1} {
		objs := Generate(200, Spec{Objects: 3, MeanRate: 5, WriteFraction: wf}, rand.New(rand.NewSource(7)))
		var reads, writes int64
		for _, o := range objs {
			reads += o.TotalReads()
			writes += o.TotalWrites()
		}
		total := reads + writes
		if total == 0 {
			t.Fatal("empty workload")
		}
		got := float64(writes) / float64(total)
		if math.Abs(got-wf) > 0.05 {
			t.Fatalf("write fraction %v, want ~%v", got, wf)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	objs := Generate(100, Spec{Objects: 10, MeanRate: 4, ZipfS: 1.2}, rand.New(rand.NewSource(3)))
	first := objs[0].TotalReads() + objs[0].TotalWrites()
	last := objs[9].TotalReads() + objs[9].TotalWrites()
	if first <= 2*last {
		t.Fatalf("zipf skew too weak: rank-1 volume %d vs rank-10 %d", first, last)
	}
}

func TestHotspotConcentration(t *testing.T) {
	n := 100
	objs := Generate(n, Spec{Objects: 1, MeanRate: 5, Hotspot: 0.8, HotspotNodes: 5},
		rand.New(rand.NewSource(11)))
	o := objs[0]
	type nv struct {
		v int
		c int64
	}
	var total int64
	counts := make([]nv, n)
	for v := 0; v < n; v++ {
		c := o.Reads[v] + o.Writes[v]
		counts[v] = nv{v, c}
		total += c
	}
	// top 5 nodes by volume should carry well over half the mass
	top := int64(0)
	for i := 0; i < 5; i++ {
		best := i
		for j := i; j < n; j++ {
			if counts[j].c > counts[best].c {
				best = j
			}
		}
		counts[i], counts[best] = counts[best], counts[i]
		top += counts[i].c
	}
	if total == 0 || float64(top)/float64(total) < 0.5 {
		t.Fatalf("hotspot mass %d of %d too diffuse", top, total)
	}
}

func TestUniformLoad(t *testing.T) {
	u := Uniform(5, 3, 2)[0]
	for v := 0; v < 5; v++ {
		if u.Reads[v] != 3 || u.Writes[v] != 2 {
			t.Fatal("uniform load wrong")
		}
	}
}

func TestObjNames(t *testing.T) {
	if objName(0) != "obj-a" {
		t.Fatalf("objName(0) = %q", objName(0))
	}
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		n := objName(i)
		if seen[n] {
			t.Fatalf("duplicate name %q at %d", n, i)
		}
		seen[n] = true
	}
}
