package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"jsonlogic/internal/engine"
	"jsonlogic/internal/store"
	"jsonlogic/internal/trace"
)

// stackConfig is the production configuration the benchmark stands
// up: the values are jsonstored's default flags except where a
// workload states otherwise (SnapshotEvery).
type stackConfig struct {
	Shards         int    `json:"shards"`
	IndexDepth     int    `json:"index_depth"`
	PlanCache      int    `json:"plan_cache"`
	SemanticBudget int    `json:"semantic_budget"`
	QueryWorkers   int    `json:"query_workers"`
	Fsync          string `json:"fsync"`
	SnapshotEvery  int    `json:"snapshot_every"`
	SlowQuery      string `json:"slow_query"`
	TraceRing      int    `json:"trace_ring"`
}

func defaultStack() stackConfig {
	return stackConfig{
		Shards:         16,
		IndexDepth:     16,
		PlanCache:      256,
		SemanticBudget: 50000,
		QueryWorkers:   0,
		Fsync:          "always",
		SnapshotEvery:  10000,
		SlowQuery:      "200ms",
		TraceRing:      trace.DefaultRingSize,
	}
}

func (c stackConfig) open(dir string) (*store.Store, error) {
	policy, err := store.ParseFsyncPolicy(c.Fsync)
	if err != nil {
		return nil, err
	}
	eng := engine.New(engine.Options{PlanCacheSize: c.PlanCache, SemanticBudget: c.SemanticBudget})
	return store.Open(store.Options{
		Shards:        c.Shards,
		MaxIndexDepth: c.IndexDepth,
		Engine:        eng,
		QueryWorkers:  c.QueryWorkers,
		DataDir:       dir,
		Fsync:         policy,
		SnapshotEvery: c.SnapshotEvery,
	})
}

// defaultTracer is the daemon's tracer at its default flags: every
// query is armed, and kept only at or over the 200ms slow threshold.
func defaultTracer() *trace.Tracer {
	return trace.New(trace.Options{SlowQuery: 200 * time.Millisecond})
}

// server serves one handler on a loopback TCP listener.
type server struct {
	srv  *http.Server
	url  string
	done chan error
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	s := &server{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits until its Serve loop returned.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// timedHandler is the traced run's outside view of httpapi: it swaps
// handlers between phases and, when timing is on, records each
// request's ServeHTTP wall time under its X-Request-ID.
type timedHandler struct {
	h      atomic.Pointer[http.Handler]
	timing atomic.Bool
	mu     sync.Mutex
	dur    map[string]time.Duration
}

func newTimedHandler(h http.Handler) *timedHandler {
	t := &timedHandler{dur: make(map[string]time.Duration)}
	t.set(h)
	return t
}

func (t *timedHandler) set(h http.Handler) { t.h.Store(&h) }

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h := *t.h.Load()
	if !t.timing.Load() {
		h.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	h.ServeHTTP(w, r)
	d := time.Since(start)
	t.mu.Lock()
	t.dur[r.Header.Get("X-Request-ID")] = d
	t.mu.Unlock()
}

func (t *timedHandler) handlerTime(id string) (time.Duration, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	d, ok := t.dur[id]
	return d, ok
}

// client is one connection's worth of HTTP client: each benchmark
// worker owns one, so the connection count is the worker count.
type client struct {
	c    *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		Proxy:               nil,
	}
	return &client{c: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

func (c *client) close() { c.c.CloseIdleConnections() }

// do sends one request and returns the status and the whole body.
func (c *client) do(method, path, reqID string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	resp, err := c.c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// findResp and selectResp are the /query response bodies.
type findResp struct {
	IDs     []string `json:"ids"`
	Indexed bool     `json:"indexed"`
}

type selectResp struct {
	Results []selRow `json:"results"`
	Indexed bool     `json:"indexed"`
}

// answer is a /query response reduced to what the checks need.
type answer struct {
	ids     []string
	sel     []selRow
	indexed bool
}

// query sends q and decodes the answer; the latency returned covers
// the exchange up to the last response byte, not the decoding.
func (c *client) query(q *query, reqID string) (answer, time.Duration, error) {
	t0 := time.Now()
	status, body, err := c.do(http.MethodPost, "/query", reqID, q.body())
	lat := time.Since(t0)
	if err != nil {
		return answer{}, lat, err
	}
	a, err := decodeAnswer(q, status, body)
	return a, lat, err
}

func decodeAnswer(q *query, status int, body []byte) (answer, error) {
	if status != http.StatusOK {
		return answer{}, fmt.Errorf("query %s %q: status %d: %s", q.lang, q.text, status, strings.TrimSpace(string(body)))
	}
	if q.mode == "select" {
		var r selectResp
		if err := json.Unmarshal(body, &r); err != nil {
			return answer{}, fmt.Errorf("decode select response: %w", err)
		}
		return answer{sel: r.Results, indexed: r.Indexed}, nil
	}
	var r findResp
	if err := json.Unmarshal(body, &r); err != nil {
		return answer{}, fmt.Errorf("decode find response: %w", err)
	}
	return answer{ids: r.IDs, indexed: r.Indexed}, nil
}

// checkAnswer compares an answer with the query's fixed expectation.
func checkAnswer(q *query, a answer) error {
	if q.mode == "select" {
		if len(a.sel) != len(q.wantSel) {
			return fmt.Errorf("%s %q: %d documents selected, want %d", q.lang, q.text, len(a.sel), len(q.wantSel))
		}
		got := make(map[string][]string, len(a.sel))
		for _, r := range a.sel {
			v := append([]string(nil), r.Values...)
			sortStrings(v)
			got[r.ID] = v
		}
		for _, w := range q.wantSel {
			if !equalStrings(got[w.ID], w.Values) {
				return fmt.Errorf("%s %q: document %s selected %v, want %v", q.lang, q.text, w.ID, got[w.ID], w.Values)
			}
		}
		return nil
	}
	if !equalStrings(a.ids, q.want) {
		return fmt.Errorf("%s %q: %d ids, want %d (first difference %s)", q.lang, q.text, len(a.ids), len(q.want), firstDiff(a.ids, q.want))
	}
	return nil
}

func firstDiff(got, want []string) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return "at " + strconv.Itoa(i) + ": " + got[i] + " vs " + want[i]
		}
	}
	return "in length"
}
