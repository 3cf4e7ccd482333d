package cluster

import (
	"net/http"
	"strings"
	"sync"

	"netplace/internal/service"
)

// Membership is the single owner of a process's view of the replica
// set: the self URL, the consistent-hash Ring, the shared per-peer
// circuit breakers (service.PeerHealth) and one service.Client per
// peer. Every routing layer in the process reads it — the forwarding
// Proxy, ShardedClient, and service.Server (through the
// service.Membership interface it implements) — and nothing caches a
// derived fact: the replication successor is recomputed from the
// current members on every use. Remove is the only mutation, so a drain
// changes ownership, failover, replication, the stats fan-out and the
// health prober in one call. Safe for concurrent use.
type Membership struct {
	self   string
	mu     sync.RWMutex
	ring   *Ring
	peers  map[string]*service.Client // every member but self
	health *service.PeerHealth
}

// NewMembership builds the membership over the replica base URLs. self
// is this process's own URL ("" for a pure client such as
// ShardedClient); it joins the ring when non-empty but gets no client
// or breaker. httpClient (nil for http.DefaultClient) carries the peer
// clients, which start without retries; bcfg tunes their breakers.
func NewMembership(self string, replicas []string, httpClient *http.Client, bcfg service.BreakerConfig) *Membership {
	m := &Membership{
		self:   strings.TrimRight(self, "/"),
		ring:   NewRing(0),
		peers:  make(map[string]*service.Client),
		health: service.NewPeerHealth(bcfg),
	}
	if m.self != "" {
		m.ring.Add(m.self)
	}
	for _, u := range replicas {
		if u = strings.TrimRight(u, "/"); u != "" && m.ring.Add(u) {
			c := service.NewClient(u, httpClient)
			c.SetBreaker(m.health.For(u))
			m.peers[u] = c
		}
	}
	return m
}

// Self is this process's own replica URL, "" for a pure client.
func (m *Membership) Self() string { return m.self }

// Members lists every current member, self included, sorted.
func (m *Membership) Members() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.ring.Members()
}

// Peers lists the current members other than self, sorted.
func (m *Membership) Peers() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.peers))
	for _, u := range m.ring.Members() {
		if u != m.self {
			out = append(out, u)
		}
	}
	return out
}

// Owner returns the member owning key on the current ring, "" when the
// ring is empty.
func (m *Membership) Owner(key string) string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.ring.Owner(key)
}

// SuccessorOf returns the member holding url's read-only instance
// snapshots under the current members (see Ring.Successor), "" when
// url is not a member or it is alone.
func (m *Membership) SuccessorOf(url string) string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.ring.Successor(url)
}

// Successor is SuccessorOf(Self()): where this replica's uploads are
// replicated right now.
func (m *Membership) Successor() string { return m.SuccessorOf(m.self) }

// Client returns the shared client for a current peer, nil for self or
// a non-member.
func (m *Membership) Client(url string) *service.Client {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.peers[url]
}

// Breaker returns a current peer's circuit breaker, nil for self or a
// non-member — so a request racing a drain cannot resurrect the
// removed peer's breaker (and with it the prober's interest in it).
func (m *Membership) Breaker(url string) *service.Breaker {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.peers[url] == nil {
		return nil
	}
	return m.health.For(url)
}

// Health is the shared per-peer breaker set; its prober probes exactly
// the current peers.
func (m *Membership) Health() *service.PeerHealth { return m.health }

// Remove drops a member from the ring together with its client and
// breaker, reporting whether it was one. Keys it owned move to the
// survivors with the ring's minimal-movement guarantee, and every
// successor lookup from now on skips it. Removing self is refused.
func (m *Membership) Remove(url string) bool {
	url = strings.TrimRight(url, "/")
	m.mu.Lock()
	defer m.mu.Unlock()
	if url == m.self || !m.ring.Remove(url) {
		return false
	}
	delete(m.peers, url)
	m.health.Remove(url)
	return true
}

// setRetryPolicy installs p on every peer client. Call before the
// membership is shared across goroutines.
func (m *Membership) setRetryPolicy(p service.RetryPolicy) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, c := range m.peers {
		c.SetRetryPolicy(p)
	}
}

// setBreakerConfig replaces the breaker set with fresh breakers tuned
// by cfg. Call before the membership is shared across goroutines.
func (m *Membership) setBreakerConfig(cfg service.BreakerConfig) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.health = service.NewPeerHealth(cfg)
	for u, c := range m.peers {
		c.SetBreaker(m.health.For(u))
	}
}

var _ service.Membership = (*Membership)(nil)
