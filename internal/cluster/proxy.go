package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"netplace/internal/service"
)

// uploadInstanceID decodes an upload body just far enough to compute the
// content-derived registry id the instance will get — the proxy's
// routing key for POST /instances.
func uploadInstanceID(body []byte) (string, error) {
	var req service.UploadRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return "", err
	}
	in, err := req.Instance.Instance()
	if err != nil {
		return "", err
	}
	return service.InstanceIDFor(in), nil
}

// Proxy makes every replica a valid entry point to the cluster: an
// http.Handler that serves requests for keys this replica owns from the
// wrapped local handler and transparently forwards the rest to the
// ring's owner, so un-sharded clients (curl, a plain service.Client) can
// talk to any replica. Forwarded requests carry the
// service.HeaderForwarded hop guard; a request arriving with it is
// always served locally, so a membership disagreement between replicas
// costs one extra hop, never a loop.
//
// Routing: instance-keyed paths (/instances/{id}...) route by the id in
// the path; POST /instances decodes the body and routes by the
// instance's content-derived id; POST /v1/sessions routes by the body's
// instance_id, placing each session on its instance's owner. Session
// paths (/v1/sessions/{id}...) carry a replica-local id, so they are
// served locally first and scattered to the peers on a local 404 —
// stateless, at the price of a fan-out for misdirected session calls.
// Everything else (list endpoints, probes, /statz) is local.
type Proxy struct {
	// m is the replica's membership, shared with the local server: it
	// answers every ownership, successor and breaker question, so a
	// drain applied by the server reroutes the proxy in the same call.
	m      *Membership
	inner  http.Handler
	client *http.Client
	// maxBody bounds how much of a request body the proxy buffers to
	// route or re-send it.
	maxBody int64
}

// NewProxy wraps a local replica's handler in cluster routing over m,
// whose Self must be this replica's URL. Forwards that fail feed the
// peer's circuit breaker in m, and an open breaker makes routing fail
// fast (or fail over to the owner's replica successor for
// stale-tolerant reads) instead of waiting out a timeout per request.
// httpClient may be nil for http.DefaultClient.
func NewProxy(m *Membership, inner http.Handler, httpClient *http.Client) *Proxy {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Proxy{m: m, inner: inner, client: httpClient, maxBody: service.DefaultMaxUploadBytes}
}

// ServeHTTP implements http.Handler.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get(service.HeaderForwarded) != "" {
		p.inner.ServeHTTP(w, r) // hop guard: never forward twice
		return
	}
	seg := strings.Split(strings.Trim(r.URL.Path, "/"), "/")
	switch {
	case seg[0] == "instances" && len(seg) >= 2:
		p.routeByKey(w, r, seg[1], nil)
	case seg[0] == "instances" && r.Method == http.MethodPost:
		body, err := p.buffer(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		id, err := uploadInstanceID(body)
		if err != nil {
			// Not routable: let the local handler produce its usual error.
			r.Body = io.NopCloser(bytes.NewReader(body))
			p.inner.ServeHTTP(w, r)
			return
		}
		p.routeByKey(w, r, id, body)
	case seg[0] == "v1" && len(seg) >= 2 && seg[1] == "sessions" && len(seg) == 2 && r.Method == http.MethodPost:
		body, err := p.buffer(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var req service.SessionRequest
		if json.Unmarshal(body, &req) != nil || req.InstanceID == "" {
			r.Body = io.NopCloser(bytes.NewReader(body))
			p.inner.ServeHTTP(w, r)
			return
		}
		p.routeByKey(w, r, req.InstanceID, body)
	case seg[0] == "v1" && len(seg) >= 3 && seg[1] == "sessions":
		p.localThenScatter(w, r)
	default:
		p.inner.ServeHTTP(w, r)
	}
}

// routeByKey serves locally when the ring maps key here, else forwards
// to the owner. body, when non-nil, replaces the (already consumed)
// request body.
//
// The owner's circuit breaker gates the forward: an open breaker fails
// fast with 503 and service.HeaderReplicaDown instead of burning a
// timeout, and stale-tolerant reads (service.HeaderAllowStale on an
// instance GET, solve, or cost) fail over to the owner's ring
// successor, which holds a read-only replica of the owner's instances.
func (p *Proxy) routeByKey(w http.ResponseWriter, r *http.Request, key string, body []byte) {
	owner := p.m.Owner(key)
	b := p.m.Breaker(owner)
	if b == nil { // self, an empty ring, or a peer drained since the lookup
		if body != nil {
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		p.inner.ServeHTTP(w, r)
		return
	}
	if body == nil {
		buf, err := p.buffer(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		body = buf
	}
	if !b.Allow() {
		if p.failover(w, r, owner, body) {
			return
		}
		writeReplicaDown(w, owner, b.RetryAfter())
		return
	}
	resp, err := p.forward(r, owner, body)
	if err != nil {
		if r.Context().Err() == nil {
			b.Failure()
		}
		if p.failover(w, r, owner, body) {
			return
		}
		http.Error(w, fmt.Sprintf("cluster: forwarding to %s: %v", owner, err), http.StatusBadGateway)
		return
	}
	b.Success()
	defer resp.Body.Close()
	copyResponse(w, resp)
}

// staleEligible reports whether a request may be served from a replica
// snapshot: the client opted in with service.HeaderAllowStale and the
// request is a side-effect-free instance read (info, solve, or cost).
func staleEligible(r *http.Request) bool {
	if r.Header.Get(service.HeaderAllowStale) == "" {
		return false
	}
	seg := strings.Split(strings.Trim(r.URL.Path, "/"), "/")
	if seg[0] != "instances" || len(seg) < 2 {
		return false
	}
	switch {
	case r.Method == http.MethodGet && len(seg) == 2:
		return true
	case r.Method == http.MethodPost && len(seg) == 3 && (seg[2] == "solve" || seg[2] == "cost"):
		return true
	}
	return false
}

// failover reroutes a stale-eligible read for a down owner to the
// owner's ring successor, which serves it from its replica store. It
// reports whether it produced a response; the caller falls back to an
// error answer when it did not.
func (p *Proxy) failover(w http.ResponseWriter, r *http.Request, owner string, body []byte) bool {
	if !staleEligible(r) {
		return false
	}
	succ := p.m.SuccessorOf(owner)
	if succ == "" || succ == owner {
		return false
	}
	w.Header().Set(service.HeaderReplicaDown, owner)
	if succ == p.m.Self() {
		if body != nil {
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		p.inner.ServeHTTP(w, r)
		return true
	}
	resp, err := p.forward(r, succ, body)
	if err != nil {
		w.Header().Del(service.HeaderReplicaDown)
		return false
	}
	defer resp.Body.Close()
	copyResponse(w, resp)
	return true
}

// writeReplicaDown renders the fail-fast answer for an owner whose
// breaker is open: 503 with the down replica named in
// service.HeaderReplicaDown and a Retry-After matching the breaker's
// reopen-probe schedule.
func writeReplicaDown(w http.ResponseWriter, replica string, retryAfter time.Duration) {
	secs := int(retryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set(service.HeaderReplicaDown, replica)
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	json.NewEncoder(w).Encode(map[string]string{ //nolint:errcheck // headers are out; nothing left to do
		"error": fmt.Sprintf("cluster: replica %s is down", replica),
	})
}

// ScatterError is the 502 body for a session scatter that could not
// rule the session out: at least one peer was unreachable (or its
// breaker open), so the session may live on a replica that did not
// answer and a 404 would be a lie. Peers maps each silent replica to
// the reason it was skipped.
type ScatterError struct {
	Error string            `json:"error"`
	Peers map[string]string `json:"peers"`
}

// localThenScatter serves a replica-local-keyed path (a session id)
// locally and, if the local handler answers 404, retries every peer with
// the hop guard set; the first non-404 answer wins. All-404 replays the
// local 404, so a genuinely unknown session still reads as one — but
// only when every peer actually answered: if any peer was unreachable,
// the scatter answers 502 with a ScatterError naming the silent peers,
// because the session may live on one of them.
func (p *Proxy) localThenScatter(w http.ResponseWriter, r *http.Request) {
	body, err := p.buffer(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	rec := &bufferedResponse{header: make(http.Header)}
	r.Body = io.NopCloser(bytes.NewReader(body))
	p.inner.ServeHTTP(rec, r)
	if rec.code != http.StatusNotFound {
		rec.replay(w)
		return
	}
	unreachable := make(map[string]string)
	for _, peer := range p.m.Peers() {
		b := p.m.Breaker(peer)
		if b == nil {
			continue // drained mid-scatter
		}
		if !b.Allow() {
			unreachable[peer] = "circuit breaker open"
			continue
		}
		resp, err := p.forward(r, peer, body)
		if err != nil {
			if r.Context().Err() == nil {
				b.Failure()
			}
			unreachable[peer] = err.Error()
			continue
		}
		b.Success()
		if resp.StatusCode == http.StatusNotFound {
			resp.Body.Close()
			continue
		}
		defer resp.Body.Close()
		copyResponse(w, resp)
		return
	}
	if len(unreachable) > 0 {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadGateway)
		json.NewEncoder(w).Encode(ScatterError{ //nolint:errcheck // headers are out; nothing left to do
			Error: "cluster: scatter incomplete: unreachable peers may hold the session",
			Peers: unreachable,
		})
		return
	}
	rec.replay(w)
}

// forward re-issues the request against a peer with the hop guard set.
func (p *Proxy) forward(r *http.Request, peer string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if len(body) > 0 {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, peer+r.URL.RequestURI(), rd)
	if err != nil {
		return nil, err
	}
	req.Header = r.Header.Clone()
	req.Header.Set(service.HeaderForwarded, p.m.Self())
	return p.client.Do(req)
}

// buffer reads the request body fully (bounded by maxBody) so it can be
// routed on and re-sent.
func (p *Proxy) buffer(r *http.Request) ([]byte, error) {
	if r.Body == nil {
		return nil, nil
	}
	defer r.Body.Close()
	body, err := io.ReadAll(io.LimitReader(r.Body, p.maxBody+1))
	if err != nil {
		return nil, fmt.Errorf("cluster: reading request body: %w", err)
	}
	if int64(len(body)) > p.maxBody {
		return nil, fmt.Errorf("cluster: request body exceeds the %d-byte proxy buffer", p.maxBody)
	}
	return body, nil
}

// copyResponse relays a forwarded response verbatim.
func copyResponse(w http.ResponseWriter, resp *http.Response) {
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body) //nolint:errcheck // headers are out; nothing left to do
}

// bufferedResponse captures a local handler's answer so the proxy can
// decide whether to scatter before committing bytes to the client.
type bufferedResponse struct {
	code   int
	header http.Header
	body   bytes.Buffer
}

// Header implements http.ResponseWriter.
func (b *bufferedResponse) Header() http.Header { return b.header }

// WriteHeader implements http.ResponseWriter.
func (b *bufferedResponse) WriteHeader(code int) {
	if b.code == 0 {
		b.code = code
	}
}

// Write implements http.ResponseWriter.
func (b *bufferedResponse) Write(p []byte) (int, error) {
	if b.code == 0 {
		b.code = http.StatusOK
	}
	return b.body.Write(p)
}

// replay commits the captured answer to the real writer.
func (b *bufferedResponse) replay(w http.ResponseWriter) {
	for k, vs := range b.header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	if b.code == 0 {
		b.code = http.StatusOK
	}
	w.WriteHeader(b.code)
	w.Write(b.body.Bytes()) //nolint:errcheck // headers are out; nothing left to do
}
