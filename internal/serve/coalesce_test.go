package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dmlscale/internal/registry"
)

// waitForWaiters spins until n requests are parked on coalescer entries.
func waitForWaiters(t *testing.T, s *Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.coal.waiters.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d followers coalesced", s.coal.waiters.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestChaosCoalesceIdenticalSweeps: identical concurrent /v1/sweep requests
// single-flight — one evaluates, the rest replay its bytes. A kernel-fault
// hook parks the leader mid-kernel until every follower has joined its
// entry, so the coalescing is deterministic, not a timing accident.
func TestChaosCoalesceIdenticalSweeps(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 16, DefaultDeadline: 30 * time.Second})
	seed := freshSeed()
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	var calls atomic.Int64
	registry.SetKernelFault(func(registry.KernelCall) registry.KernelFault {
		if calls.Add(1) == 1 {
			close(leaderIn)
			<-release
		}
		return registry.KernelFault{}
	})
	defer registry.SetKernelFault(nil)

	// Same seed, different whitespace: the canonical key must see through
	// formatting, not just byte-equal bodies.
	leaderBody := `{"suite": ` + graphSuite(seed) + `}`
	followerBody := `{ "suite":` + graphSuite(seed) + ` }`
	const followers = 4
	type result struct {
		status int
		body   []byte
	}
	results := make([]result, followers+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		st, b, _ := post(t, ts, "/v1/sweep", leaderBody)
		results[0] = result{st, b}
	}()
	<-leaderIn
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, b, _ := post(t, ts, "/v1/sweep", followerBody)
			results[i] = result{st, b}
		}()
	}
	waitForWaiters(t, s, followers)
	close(release)
	wg.Wait()

	for i, r := range results {
		if r.status != 200 {
			t.Fatalf("request %d: status %d: %s", i, r.status, r.body)
		}
		if !bytes.Equal(r.body, results[0].body) {
			t.Errorf("request %d: body differs from the leader's", i)
		}
	}
	m := s.Metrics()
	if m.Coalesced != followers {
		t.Errorf("coalesced_total = %d, want %d", m.Coalesced, followers)
	}
	if m.Sweeps != followers+1 {
		t.Errorf("sweeps_total = %d, want %d (replays count as answered sweeps)", m.Sweeps, followers+1)
	}
	checkBudgetIntact(t)
}

// TestChaosCoalescePanickedLeader: a leader that panics mid-evaluation must
// not poison its followers. The entry drops unpublished, every waiter
// evaluates for itself and succeeds, nothing replays the failure, and no
// stale entry lingers in the in-flight table. Driven through the production
// wrapper chain (contained around coalesce) with a scripted handler, since
// kernel-level panics are already contained per cell before reaching serve.
func TestChaosCoalescePanickedLeader(t *testing.T) {
	s := New(Config{MaxInFlight: 16})
	defer s.Close()
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	var calls atomic.Int64
	const okBody = `{"ok":true}`
	handler := s.contained("sweep", s.coalesce("sweep", func(ctx context.Context, raw []byte) reply {
		if calls.Add(1) == 1 {
			close(leaderIn)
			<-release
			panic("chaos: leader exploded mid-evaluation")
		}
		return reply{status: http.StatusOK, body: []byte(okBody)}
	}))
	ts := httptest.NewServer(handler)
	defer ts.Close()

	body := `{"suite": {"name": "coalesce-panic"}}`
	const followers = 3
	statuses := make([]int, followers+1)
	bodies := make([][]byte, followers+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		statuses[0], bodies[0], _ = post(t, ts, "/", body)
	}()
	<-leaderIn
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			statuses[i], bodies[i], _ = post(t, ts, "/", body)
		}()
	}
	waitForWaiters(t, s, followers)
	close(release)
	wg.Wait()

	if statuses[0] != http.StatusInternalServerError {
		t.Fatalf("leader status = %d, want 500 (contained panic)", statuses[0])
	}
	for i := 1; i <= followers; i++ {
		if statuses[i] != 200 {
			t.Fatalf("follower %d: status %d: %s (poisoned by the leader's panic?)", i, statuses[i], bodies[i])
		}
		if string(bodies[i]) != okBody {
			t.Errorf("follower %d: body %q, want %q", i, bodies[i], okBody)
		}
	}
	m := s.Metrics()
	if m.Panics != 1 {
		t.Errorf("panics_total = %d, want 1", m.Panics)
	}
	if m.Coalesced != 0 {
		t.Errorf("coalesced_total = %d, want 0: a failed leader's response must never replay", m.Coalesced)
	}
	s.coal.mu.Lock()
	stale := len(s.coal.inflight)
	s.coal.mu.Unlock()
	if stale != 0 {
		t.Errorf("in-flight table holds %d stale entries after the panic", stale)
	}
}
