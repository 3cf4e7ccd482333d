package service

import (
	"context"
	"errors"
)

// This file is the server half of netplaced clustering (see
// docs/cluster.md): the membership the server reads and the
// cluster-wide /statz merge. The routing halves — consistent-hash ring,
// the Membership implementation, ShardedClient, stateless proxy — live
// in internal/cluster, which builds on this package.

// HeaderForwarded is the proxy hop guard: a replica forwarding a request
// it does not own sets it, and a replica receiving it serves locally no
// matter what the ring says — so a stale ring or a membership
// disagreement degrades to one extra hop, never a forwarding loop.
const HeaderForwarded = "X-Netplace-Forwarded"

// Membership is the cluster's replica set as one replica sees it. Its
// only implementation is internal/cluster.Membership, which owns the
// consistent-hash ring; the server reads it through this interface
// because internal/cluster imports this package. One value is shared
// per process by the server and the forwarding proxy, so a drain
// changes routing, replication, the stats fan-out and the health
// prober in one call.
type Membership interface {
	// Self is this replica's advertised base URL.
	Self() string
	// Peers lists the current members other than Self, sorted.
	Peers() []string
	// Successor is the member that holds this replica's read-only
	// instance snapshots, derived from the current members on every
	// call; "" when there is none.
	Successor() string
	// Client returns the shared, breaker-gated client for a current
	// member, nil for anyone else.
	Client(url string) *Client
	// Health is the per-peer circuit breaker set.
	Health() *PeerHealth
	// Remove drops a member — the only mutation — reporting whether it
	// was one.
	Remove(url string) bool
}

// Join makes the server a replica of m: successor pushes, the
// /statz?cluster=1 fan-out, the peer form of POST /v1/cluster/drain and
// the background /readyz prober (every Config.ProbeInterval) all read
// m from now on. Call once, before serving traffic.
func (s *Server) Join(m Membership) {
	s.members = m
	if s.cfg.ProbeInterval > 0 {
		m.Health().StartProber(s.cfg.ProbeInterval, s.cfg.PeerTimeout)
	}
}

// successor resolves the current successor and its client; both are
// empty on a standalone server or a single-member cluster.
func (s *Server) successor() (string, *Client) {
	if s.members == nil {
		return "", nil
	}
	url := s.members.Successor()
	if url == "" {
		return "", nil
	}
	return url, s.members.Client(url)
}

// clusterStats fans the plain /statz request out to every peer and
// merges the snapshots into the cluster-wide view. Peers are asked for
// plain /statz (never ?cluster=1), so two replicas gossiping about each
// other cannot recurse. Unreachable peers degrade to an entry in Errors
// rather than failing the request.
func (s *Server) clusterStats(ctx context.Context) ClusterStats {
	self := "self"
	var peers []string
	if s.members != nil {
		peers = s.members.Peers()
		if u := s.members.Self(); u != "" {
			self = u
		}
	}
	out := ClusterStats{Self: self, Replicas: map[string]Stats{self: s.Stats()}}
	type fetched struct {
		url string
		st  Stats
		err error
	}
	results := make(chan fetched, len(peers))
	for _, url := range peers {
		go func(url string) {
			f := fetched{url: url, err: errNotMember}
			if pc := s.members.Client(url); pc != nil {
				pctx, cancel := context.WithTimeout(ctx, s.cfg.PeerTimeout)
				defer cancel()
				f.st, f.err = pc.Stats(pctx)
			}
			results <- f
		}(url)
	}
	for range peers {
		f := <-results
		if f.err != nil {
			if out.Errors == nil {
				out.Errors = map[string]string{}
			}
			out.Errors[f.url] = f.err.Error()
			continue
		}
		out.Replicas[f.url] = f.st
	}
	for _, st := range out.Replicas {
		out.Totals.Replicas++
		out.Totals.Instances += st.Instances
		out.Totals.SolvesTotal += st.SolvesTotal
		out.Totals.CacheHits += st.CacheHits
		out.Totals.CacheMisses += st.CacheMisses
		out.Totals.SessionsOpen += st.SessionsOpen
		out.Totals.SessionEvents += st.SessionEvents
		out.Totals.SessionEpochs += st.SessionEpochs
		out.Totals.Sheds += st.Sheds
	}
	return out
}

// errNotMember answers the stats fan-out for a peer removed between
// Peers and Client.
var errNotMember = errors.New("service: replica left the cluster")
