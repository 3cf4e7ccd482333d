package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"netplace/internal/service"
)

// TestProxyAnyReplicaEntryPoint: with forwarding on (the default), a
// plain un-sharded service.Client can talk to ANY replica — uploads,
// instance reads, solves, and session calls for keys owned elsewhere
// are transparently forwarded to the owner, and session calls land via
// the local-first-then-scatter path.
func TestProxyAnyReplicaEntryPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process suite; skipped in -short mode")
	}
	ctx := context.Background()
	h, err := NewHarness(HarnessConfig{N: 2, BaseDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	defer h.Stop()

	in := conformanceInstance(t)
	id := service.InstanceIDFor(in)
	ring := NewRingOf(0, h.URLs()...)
	owner := ring.Owner(id)
	var nonOwner string
	for _, u := range h.URLs() {
		if u != owner {
			nonOwner = u
		}
	}
	if nonOwner == "" {
		t.Fatalf("no non-owner replica for %s in %v", id, h.URLs())
	}
	// Drive everything through the replica that does NOT own the key.
	c := service.NewClient(nonOwner, nil)

	up, err := c.Upload(ctx, "via-proxy", in)
	if err != nil {
		t.Fatalf("upload via non-owner: %v\n%s", err, h.LogTail(0))
	}
	if up.ID != id {
		t.Fatalf("uploaded id %s, want %s", up.ID, id)
	}
	// Readable from both entry points: owner directly, non-owner via a
	// forwarded hop.
	for _, u := range h.URLs() {
		if _, err := service.NewClient(u, nil).Info(ctx, id); err != nil {
			t.Fatalf("info via %s: %v", u, err)
		}
	}
	if _, err := c.Solve(ctx, id, service.SolveOptions{}); err != nil {
		t.Fatalf("solve via non-owner: %v", err)
	}

	// Sessions live on the instance's owner; the proxy routes the open
	// by the body's instance_id, and later session calls from the
	// non-owner find it by scattering on the replica-local id.
	sess, err := c.OpenSession(ctx, id, service.SessionConfig{Epoch: 8})
	if err != nil {
		t.Fatalf("open session via non-owner: %v", err)
	}
	if _, err := c.SessionEventsSeq(ctx, sess.SessionID, 1, conformanceTrace(24, 8)); err != nil {
		t.Fatalf("session events via non-owner: %v", err)
	}
	pl, err := c.SessionPlacement(ctx, sess.SessionID)
	if err != nil {
		t.Fatalf("session placement via non-owner: %v", err)
	}
	if pl.Stats.Events != 8 {
		t.Fatalf("session saw %d events, want 8", pl.Stats.Events)
	}
	// The session is resident on the owner only; statz proves the
	// non-owner served it by forwarding, not by hosting a copy.
	ownStats, err := service.NewClient(owner, nil).Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ownStats.SessionsOpen != 1 || ownStats.SessionEvents != 8 {
		t.Fatalf("owner sessions_open=%d session_events=%d, want 1/8",
			ownStats.SessionsOpen, ownStats.SessionEvents)
	}

	// A genuinely unknown session still reads as 404 after the scatter.
	if _, err := c.Session(ctx, "s-ffffff"); err == nil {
		t.Fatal("unknown session id did not 404 through the proxy")
	}

	// Hop guard: a request arriving with the forwarded header is served
	// strictly locally — the non-owner answers 404 for an instance it
	// does not host instead of forwarding again.
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, nonOwner+"/instances/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(service.HeaderForwarded, "test")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("hop-guarded request got %d, want 404 (served locally)", resp.StatusCode)
	}

	// The merged cluster view is reachable through any entry point and
	// agrees on membership.
	cs, err := c.ClusterStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Totals.Replicas != 2 || len(cs.Errors) != 0 {
		t.Fatalf("cluster view replicas=%d errors=%v, want 2 and none", cs.Totals.Replicas, cs.Errors)
	}
}

// TestScatterUnreachablePeer502: a session scatter that cannot reach
// every peer must not claim 404 — the session may live on a replica
// that did not answer. It answers 502 with a ScatterError naming the
// silent peers, both for transport failures and for peers skipped by
// an open circuit breaker; with every peer answering, an all-404
// scatter still reads as a clean 404.
func TestScatterUnreachablePeer502(t *testing.T) {
	notFound := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.NotFound(w, r)
	})
	scatter := func(p *Proxy) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		p.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/sessions/s-abc123", nil))
		return rec
	}

	// Port 1 is never listening: every forward fails at dial time.
	dead := "http://127.0.0.1:1"
	p := NewProxy(NewMembership("http://self.test", []string{"http://self.test", dead}, nil, service.BreakerConfig{}), notFound, nil)
	rec := scatter(p)
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("scatter with unreachable peer answered %d, want 502", rec.Code)
	}
	var se ScatterError
	if err := json.Unmarshal(rec.Body.Bytes(), &se); err != nil {
		t.Fatalf("502 body is not a ScatterError: %v\n%s", err, rec.Body.Bytes())
	}
	if se.Error == "" || se.Peers[dead] == "" {
		t.Fatalf("ScatterError does not name the silent peer: %+v", se)
	}

	// The dial failures fed the peer's breaker; once it opens the peer
	// is skipped without a connection attempt — still 502, with the
	// breaker named as the reason.
	for i := 0; i < 3; i++ {
		scatter(p)
	}
	rec = scatter(p)
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("scatter with open-breaker peer answered %d, want 502", rec.Code)
	}
	se = ScatterError{}
	if err := json.Unmarshal(rec.Body.Bytes(), &se); err != nil {
		t.Fatal(err)
	}
	if se.Peers[dead] != "circuit breaker open" {
		t.Fatalf("open-breaker skip reason = %q, want \"circuit breaker open\"", se.Peers[dead])
	}

	// Every peer answering 404 is a provable miss: clean 404, no error.
	peer := httptest.NewServer(notFound)
	defer peer.Close()
	p2 := NewProxy(NewMembership("http://self.test", []string{"http://self.test", peer.URL}, nil, service.BreakerConfig{}), notFound, nil)
	if rec := scatter(p2); rec.Code != http.StatusNotFound {
		t.Fatalf("all-404 scatter answered %d, want 404", rec.Code)
	}
}
