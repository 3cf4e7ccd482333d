package cluster

import (
	"fmt"
	"testing"
)

// ringKeys synthesises n distinct instance-hash-shaped keys.
func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%016x", mix64(uint64(i)+1))
	}
	return keys
}

func TestRingBasics(t *testing.T) {
	for _, tc := range []struct {
		name     string
		replicas []string
	}{
		{"single", []string{"a"}},
		{"pair", []string{"a", "b"}},
		{"quad", []string{"r0", "r1", "r2", "r3"}},
		{"urls", []string{"http://127.0.0.1:4001", "http://127.0.0.1:4002"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRingOf(0, tc.replicas...)
			if r.Len() != len(tc.replicas) {
				t.Fatalf("Len = %d, want %d", r.Len(), len(tc.replicas))
			}
			for _, key := range ringKeys(64) {
				owner := r.Owner(key)
				if !r.Has(owner) {
					t.Fatalf("Owner(%q) = %q, not a member", key, owner)
				}
				if again := r.Owner(key); again != owner {
					t.Fatalf("Owner(%q) unstable: %q then %q", key, owner, again)
				}
			}
		})
	}
}

func TestRingEmptyAndDuplicates(t *testing.T) {
	r := NewRing(8)
	if got := r.Owner("anything"); got != "" {
		t.Fatalf("empty ring Owner = %q, want empty", got)
	}
	if !r.Add("a") || r.Add("a") {
		t.Fatal("Add should report true once, then false for a duplicate")
	}
	if want := 8 * ringSubPoints; len(r.points) != want {
		t.Fatalf("duplicate Add grew the ring to %d points, want %d", len(r.points), want)
	}
	if !r.Remove("a") || r.Remove("a") {
		t.Fatal("Remove should report true once, then false")
	}
	if got := r.Owner("anything"); got != "" {
		t.Fatalf("drained ring Owner = %q, want empty", got)
	}
}

// TestRingOrderIndependence asserts ownership depends only on the member
// set: the same members added in different orders (with removals in
// between) yield identical owners for every key.
func TestRingOrderIndependence(t *testing.T) {
	keys := ringKeys(512)
	a := NewRingOf(0, "r0", "r1", "r2", "r3")
	b := NewRing(0)
	for _, m := range []string{"r3", "r1", "r0", "r2", "dead"} {
		b.Add(m)
	}
	b.Remove("dead")
	for _, key := range keys {
		if ao, bo := a.Owner(key), b.Owner(key); ao != bo {
			t.Fatalf("Owner(%q) differs by construction order: %q vs %q", key, ao, bo)
		}
	}
}

// TestRingDistributionUniform asserts that at DefaultVnodes every
// replica's key share stays within 15% of uniform — the satellite's
// pinned bound.
func TestRingDistributionUniform(t *testing.T) {
	keys := ringKeys(100000)
	for _, n := range []int{2, 3, 4, 8} {
		replicas := make([]string, n)
		for i := range replicas {
			replicas[i] = fmt.Sprintf("http://10.0.0.%d:8723", i+1)
		}
		r := NewRingOf(DefaultVnodes, replicas...)
		counts := map[string]int{}
		for _, key := range keys {
			counts[r.Owner(key)]++
		}
		want := float64(len(keys)) / float64(n)
		for _, rep := range replicas {
			got := float64(counts[rep])
			if dev := (got - want) / want; dev < -0.15 || dev > 0.15 {
				t.Errorf("n=%d: replica %s owns %.0f keys, %.1f%% off uniform (%0.f)",
					n, rep, got, 100*dev, want)
			}
		}
	}
}

// TestRingMinimalMovementOnAdd asserts that adding one replica moves
// keys only TO the new replica (nothing shuffles between the old ones),
// and that the moved fraction is about 1/(N+1).
func TestRingMinimalMovementOnAdd(t *testing.T) {
	keys := ringKeys(50000)
	for _, n := range []int{1, 2, 3, 4, 7} {
		r := NewRing(DefaultVnodes)
		for i := 0; i < n; i++ {
			r.Add(fmt.Sprintf("r%d", i))
		}
		before := make([]string, len(keys))
		for i, key := range keys {
			before[i] = r.Owner(key)
		}
		r.Add("rNew")
		moved := 0
		for i, key := range keys {
			after := r.Owner(key)
			if after == before[i] {
				continue
			}
			if after != "rNew" {
				t.Fatalf("n=%d: key %q moved %q → %q, not to the new replica", n, key, before[i], after)
			}
			moved++
		}
		want := float64(len(keys)) / float64(n+1)
		if got := float64(moved); got > 1.5*want {
			t.Errorf("n=%d: add moved %d keys, want ≈%.0f (≤1.5x)", n, moved, want)
		}
		if moved == 0 {
			t.Errorf("n=%d: add moved no keys at all", n)
		}
	}
}

// TestRingMinimalMovementOnRemove asserts the dual: removing a replica
// changes owners ONLY for the keys it owned — an exact property of
// consistent hashing, not an approximation.
func TestRingMinimalMovementOnRemove(t *testing.T) {
	keys := ringKeys(50000)
	for _, n := range []int{2, 3, 4, 8} {
		r := NewRing(DefaultVnodes)
		for i := 0; i < n; i++ {
			r.Add(fmt.Sprintf("r%d", i))
		}
		before := make([]string, len(keys))
		for i, key := range keys {
			before[i] = r.Owner(key)
		}
		const victim = "r0"
		r.Remove(victim)
		moved := 0
		for i, key := range keys {
			after := r.Owner(key)
			if before[i] == victim {
				if after == victim {
					t.Fatalf("n=%d: key %q still owned by removed replica", n, key)
				}
				moved++
				continue
			}
			if after != before[i] {
				t.Fatalf("n=%d: key %q owned by %q moved to %q although only %q was removed",
					n, key, before[i], after, victim)
			}
		}
		want := float64(len(keys)) / float64(n)
		if got := float64(moved); got > 1.5*want || moved == 0 {
			t.Errorf("n=%d: remove reassigned %d keys, want ≈%.0f", n, moved, want)
		}
	}
}

func TestRingSuccessor(t *testing.T) {
	r := NewRingOf(0, "http://c", "http://a", "http://b")
	// Successor follows SORTED member order, independent of insertion
	// order or ring-point adjacency, wrapping at the end.
	for _, tc := range []struct{ self, want string }{
		{"http://a", "http://b"},
		{"http://b", "http://c"},
		{"http://c", "http://a"},
	} {
		if got := r.Successor(tc.self); got != tc.want {
			t.Errorf("Successor(%q) = %q, want %q", tc.self, got, tc.want)
		}
	}
	// A non-member has no successor, nor does a single-member ring.
	if got := r.Successor("http://zz"); got != "" {
		t.Errorf("Successor of non-member = %q, want empty", got)
	}
	if got := NewRingOf(0, "http://a").Successor("http://a"); got != "" {
		t.Errorf("single-member Successor = %q, want empty", got)
	}
	// Removing a member re-derives successors from the survivors.
	r.Remove("http://b")
	if got := r.Successor("http://a"); got != "http://c" {
		t.Errorf("Successor after removal = %q, want http://c", got)
	}
}
