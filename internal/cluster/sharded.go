package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"netplace/internal/core"
	"netplace/internal/service"
)

// ShardedClient routes every instance, solve, and session call to the
// replica owning the key on the consistent-hash ring, so a caller uses a
// netplaced cluster exactly like one server. Instances are keyed by
// their content-derived registry id (service.InstanceIDFor), computed
// client-side, so an upload goes straight to its owner; a session lives
// on its instance's owner and its id is returned in the composite form
// "sid@replicaURL", which later session calls route by parsing — the
// client itself stays stateless, so two ShardedClients over the same
// cluster agree on every route.
//
// Each per-replica client shares one retry policy (SetRetryPolicy); with
// sequenced ingest (SessionEventsSeq) a replica restart mid-stream is
// absorbed transparently: the retry reconnects and the server's
// idempotent dedup discards anything the torn response already applied.
type ShardedClient struct {
	m *Membership // self-less: every replica is a peer
}

// NewShardedClient builds a sharded client over the replica base URLs
// (e.g. "http://127.0.0.1:4001"). httpClient may be nil for
// http.DefaultClient; retries are off until SetRetryPolicy. Every
// per-replica client carries a circuit breaker fed passively by its
// request outcomes (tune with SetBreakerConfig): calls to a replica
// whose breaker is open fail fast with service.ErrReplicaDown, and
// SolveStale fails over to the key's snapshot successor.
func NewShardedClient(replicas []string, httpClient *http.Client) (*ShardedClient, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("cluster: sharded client needs at least one replica")
	}
	return &ShardedClient{m: NewMembership("", replicas, httpClient, service.BreakerConfig{})}, nil
}

// SetRetryPolicy installs the retry policy on every per-replica client.
// Call before sharing the client across goroutines.
func (sc *ShardedClient) SetRetryPolicy(p service.RetryPolicy) { sc.m.setRetryPolicy(p) }

// SetBreakerConfig rebuilds the per-replica circuit breakers with cfg's
// thresholds. Call before sharing the client across goroutines.
func (sc *ShardedClient) SetBreakerConfig(cfg service.BreakerConfig) { sc.m.setBreakerConfig(cfg) }

// Health exposes the per-replica breaker tracker, so callers can
// inspect (or tests can manipulate) replica state.
func (sc *ShardedClient) Health() *service.PeerHealth { return sc.m.Health() }

// Owner returns the replica URL owning an instance id.
func (sc *ShardedClient) Owner(instanceID string) string { return sc.m.Owner(instanceID) }

// clientFor returns the owning replica's client for an instance key.
func (sc *ShardedClient) clientFor(instanceID string) *service.Client {
	return sc.m.Client(sc.m.Owner(instanceID))
}

// splitSessionID parses the composite "sid@replicaURL" form minted by
// OpenSession. The replica URL may itself contain '@' in theory, the
// session id ("s-%06x") never does, so the split is on the FIRST '@'.
func (sc *ShardedClient) splitSessionID(id string) (sid string, c *service.Client, err error) {
	sid, rep, ok := strings.Cut(id, "@")
	if !ok {
		return "", nil, fmt.Errorf("cluster: session id %q lacks the @replica suffix minted by OpenSession", id)
	}
	if c = sc.m.Client(rep); c == nil {
		return "", nil, fmt.Errorf("cluster: session id %q names unknown replica %q", id, rep)
	}
	return sid, c, nil
}

// Upload registers an instance on its owning replica. The owner is
// computed from the instance's content hash before any network round
// trip, so re-uploads of identical content always land on the same
// replica.
func (sc *ShardedClient) Upload(ctx context.Context, name string, in *core.Instance) (service.UploadResponse, error) {
	return sc.clientFor(service.InstanceIDFor(in)).Upload(ctx, name, in)
}

// Solve solves on the instance's owning replica.
func (sc *ShardedClient) Solve(ctx context.Context, id string, opts service.SolveOptions) (service.SolveResult, error) {
	return sc.clientFor(id).Solve(ctx, id, opts)
}

// SolveStale is Solve with degraded-mode opt-in, cluster-wide: it asks
// the owning replica first (service.Client.SolveStale semantics —
// overload there serves the last good placement), and when the owner is
// down — its breaker open, or the call failing at the transport level —
// it fails over to the key's snapshot successor, which answers from its
// hash-verified read-only replica with Stale=true. Writes never fail
// over; only this read path does.
func (sc *ShardedClient) SolveStale(ctx context.Context, id string, opts service.SolveOptions) (service.SolveResult, error) {
	owner := sc.m.Owner(id)
	if b := sc.m.Breaker(owner); b != nil && b.Ready() {
		res, err := sc.m.Client(owner).SolveStale(ctx, id, opts)
		if err == nil || !replicaFault(err) {
			return res, err
		}
	}
	succ := sc.m.SuccessorOf(owner)
	if succ == "" {
		return service.SolveResult{}, &service.ReplicaDownError{Replica: owner}
	}
	return sc.m.Client(succ).SolveDegraded(ctx, id, opts)
}

// replicaFault reports errors that mean "the replica is unreachable or
// known down" — the faults failover covers — as opposed to application
// errors (bad options, 404) the successor would only repeat.
func replicaFault(err error) bool {
	if errors.Is(err, service.ErrReplicaDown) {
		return true
	}
	var ae *service.APIError
	if errors.As(err, &ae) {
		return false // the owner answered; its verdict stands
	}
	if errors.Is(err, context.Canceled) {
		return false
	}
	return true // transport-level fault
}

// OpenSession opens a streaming session on the replica owning the
// instance and rewrites the returned SessionID to the composite
// "sid@replicaURL" form every later session call routes by.
func (sc *ShardedClient) OpenSession(ctx context.Context, instanceID string, cfg service.SessionConfig) (service.SessionInfo, error) {
	owner := sc.m.Owner(instanceID)
	info, err := sc.m.Client(owner).OpenSession(ctx, instanceID, cfg)
	if err != nil {
		return info, err
	}
	info.SessionID = info.SessionID + "@" + owner
	return info, nil
}

// Session returns a session's record from the replica named in its
// composite id.
func (sc *ShardedClient) Session(ctx context.Context, id string) (service.SessionInfo, error) {
	sid, c, err := sc.splitSessionID(id)
	if err != nil {
		return service.SessionInfo{}, err
	}
	info, err := c.Session(ctx, sid)
	if err != nil {
		return info, err
	}
	info.SessionID = id
	return info, nil
}

// SessionEventsSeq streams a sequenced batch to the session's replica —
// the cluster's idempotent ingest path: retried on any fault, and the
// owning replica's durable dedup turns the retries into exactly-once.
func (sc *ShardedClient) SessionEventsSeq(ctx context.Context, id string, seq int64, events []service.SessionEvent) (service.SessionEventsResponse, error) {
	sid, c, err := sc.splitSessionID(id)
	if err != nil {
		return service.SessionEventsResponse{}, err
	}
	return c.SessionEventsSeq(ctx, sid, seq, events)
}

// SessionFlush closes the session's open partial epoch on its replica.
func (sc *ShardedClient) SessionFlush(ctx context.Context, id string) (service.SessionEventsResponse, error) {
	sid, c, err := sc.splitSessionID(id)
	if err != nil {
		return service.SessionEventsResponse{}, err
	}
	return c.SessionFlush(ctx, sid)
}

// SessionPlacement reads the session's adaptive placement from its
// replica, echoing the composite id back in the response.
func (sc *ShardedClient) SessionPlacement(ctx context.Context, id string) (service.SessionPlacementResponse, error) {
	sid, c, err := sc.splitSessionID(id)
	if err != nil {
		return service.SessionPlacementResponse{}, err
	}
	resp, err := c.SessionPlacement(ctx, sid)
	if err != nil {
		return resp, err
	}
	resp.SessionID = id
	return resp, nil
}

// CloseSession drops the session on its replica.
func (sc *ShardedClient) CloseSession(ctx context.Context, id string) error {
	sid, c, err := sc.splitSessionID(id)
	if err != nil {
		return err
	}
	return c.CloseSession(ctx, sid)
}

// Stats snapshots every replica's /statz, keyed by replica URL. A
// replica that cannot be reached yields an error for its slot in errs
// (same key); stats holds only the reachable ones.
func (sc *ShardedClient) Stats(ctx context.Context) (stats map[string]service.Stats, errs map[string]error) {
	stats = make(map[string]service.Stats)
	errs = make(map[string]error)
	for _, rep := range sc.m.Members() {
		st, err := sc.m.Client(rep).Stats(ctx)
		if err != nil {
			errs[rep] = err
			continue
		}
		stats[rep] = st
	}
	return stats, errs
}
