package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
)

// maxRequestBytes caps evaluation request bodies. contained reads each body
// once under it, before coalescing or decoding sees the bytes.
const maxRequestBytes = 4 << 20

// coalesceEntry is one in-flight evaluation other identical requests may
// wait on. The leader stores its reply before closing done; followers share
// it only when it is a 200 — a reply the server would reproduce
// byte-for-byte anyway, since identical requests evaluate deterministically.
type coalesceEntry struct {
	done chan struct{}
	rep  reply
}

// coalescer is the per-server single-flight table for /v1/sweep and
// /v1/plan: one entry per canonical request in flight, keyed by route and
// body hash. waiters counts requests currently parked on an entry — a test
// synchronization point, not a serving signal.
type coalescer struct {
	mu       sync.Mutex
	inflight map[string]*coalesceEntry
	waiters  atomic.Int64
}

// coalesceKey canonicalizes a request body — route plus the SHA-256 of the
// JSON with insignificant whitespace removed — so textually different but
// semantically identical requests share one evaluation. Non-JSON bodies
// don't coalesce (the handler's strict decode rejects them anyway).
func coalesceKey(route string, raw []byte) (string, bool) {
	var compact bytes.Buffer
	if err := json.Compact(&compact, raw); err != nil {
		return "", false
	}
	sum := sha256.Sum256(compact.Bytes())
	return route + ":" + string(sum[:]), true
}

// coalesce wraps an evaluation handler in single-flight request coalescing:
// while one request for a canonical body is evaluating, identical requests
// wait for its reply and share it instead of re-running the whole
// evaluation — N dashboards asking for the same sweep cost one kernel pass.
// Soundness rests on the service's determinism contract: identical requests
// produce byte-identical 200s, so sharing is indistinguishable from
// re-evaluating. A follower's reply carries the body but not the leader's
// stats, so per-evaluation metrics count the evaluation once. Only 200s are
// shared; a leader that fails, expires or panics drops its entry and every
// waiter evaluates for itself, so one poisoned request can never fan its
// failure out to followers. Runs inside contained, so waiters hold
// admission slots — coalescing dedupes work, it does not widen admission.
func (s *Server) coalesce(route string, h evalHandler) evalHandler {
	return func(ctx context.Context, raw []byte) reply {
		key, canonical := coalesceKey(route, raw)
		if !canonical {
			return h(ctx, raw)
		}
		s.coal.mu.Lock()
		if e := s.coal.inflight[key]; e != nil {
			s.coal.mu.Unlock()
			s.coal.waiters.Add(1)
			select {
			case <-e.done:
				s.coal.waiters.Add(-1)
			case <-ctx.Done():
				s.coal.waiters.Add(-1)
				s.clientGone.Inc()
				return errorReply(http.StatusServiceUnavailable, "evaluation cancelled: %v", ctx.Err())
			}
			if e.rep.status == http.StatusOK {
				s.coalescedTotal.Inc()
				s.answered(route)
				return reply{status: http.StatusOK, body: e.rep.body}
			}
			// The leader failed; evaluate for ourselves rather than share
			// a failure that may have been the leader's alone (its deadline,
			// its disconnect, its panic).
			return h(ctx, raw)
		}
		e := &coalesceEntry{done: make(chan struct{})}
		s.coal.inflight[key] = e
		s.coal.mu.Unlock()
		// The release runs even when the handler panics: the entry leaves
		// the map with no reply, waiters self-execute, and the panic
		// continues up to the containment wrapper's recover.
		defer func() {
			s.coal.mu.Lock()
			delete(s.coal.inflight, key)
			s.coal.mu.Unlock()
			close(e.done)
		}()
		e.rep = h(ctx, raw)
		return e.rep
	}
}
