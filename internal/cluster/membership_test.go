package cluster

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"netplace/internal/service"
)

// TestMembershipRemove: Remove is the one mutation, and every derived
// fact — owner, peers, successor, client, breaker — follows it.
func TestMembershipRemove(t *testing.T) {
	m := NewMembership("http://b/", []string{"http://a", "http://b", "http://c", "http://c/", ""}, nil, service.BreakerConfig{})
	if got := m.Members(); !reflect.DeepEqual(got, []string{"http://a", "http://b", "http://c"}) {
		t.Fatalf("Members() = %v", got)
	}
	if got := m.Peers(); !reflect.DeepEqual(got, []string{"http://a", "http://c"}) {
		t.Fatalf("Peers() = %v", got)
	}
	if m.Self() != "http://b" || m.Successor() != "http://c" {
		t.Fatalf("Self()=%q Successor()=%q, want http://b and http://c", m.Self(), m.Successor())
	}
	if m.Client("http://b") != nil || m.Breaker("http://b") != nil {
		t.Fatal("self has a peer client or breaker")
	}
	if m.Client("http://a") == nil || m.Breaker("http://a") == nil {
		t.Fatal("peer http://a has no client or breaker")
	}

	owners := map[string]string{}
	for i := 0; i < 300; i++ {
		k := fmt.Sprintf("key-%d", i)
		owners[k] = m.Owner(k)
	}
	if m.Remove("http://b") {
		t.Fatal("Remove(self) succeeded")
	}
	if !m.Remove("http://c/") {
		t.Fatal("Remove of a member reported false")
	}
	if m.Remove("http://c") {
		t.Fatal("second Remove reported true")
	}
	if got := m.Peers(); !reflect.DeepEqual(got, []string{"http://a"}) {
		t.Fatalf("Peers() after Remove = %v", got)
	}
	if got := m.Successor(); got != "http://a" {
		t.Fatalf("Successor() after Remove = %q, want http://a", got)
	}
	if m.Client("http://c") != nil || m.Breaker("http://c") != nil {
		t.Fatal("removed member still has a client or breaker")
	}
	if states := m.Health().States(); len(states) != 1 || states["http://a"] == "" {
		t.Fatalf("breaker set after Remove = %v, want only http://a", states)
	}
	for k, was := range owners {
		if now := m.Owner(k); was != "http://c" && now != was {
			t.Fatalf("key %s moved from %s to %s though its owner stayed", k, was, now)
		}
	}
}

// TestMembershipConcurrentRemove routes from several goroutines while a
// drain removes members: no data race, and no breaker of a removed
// member is re-created by a request that raced the removal.
func TestMembershipConcurrentRemove(t *testing.T) {
	m := NewMembership("http://a", []string{"http://a", "http://b", "http://c", "http://d"}, nil, service.BreakerConfig{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				owner := m.Owner(fmt.Sprintf("k%d-%d", g, i))
				if b := m.Breaker(owner); b != nil {
					b.Success()
				}
				m.SuccessorOf(owner)
				m.Client(owner)
				m.Peers()
			}
		}(g)
	}
	m.Remove("http://b")
	m.Remove("http://c")
	wg.Wait()
	if states := m.Health().States(); len(states) != 1 || states["http://d"] == "" {
		t.Fatalf("breaker set after concurrent removal = %v, want only http://d", states)
	}
}
