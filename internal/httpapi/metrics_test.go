package httpapi

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"jsonlogic/internal/metrics"
	"jsonlogic/internal/store"
)

// scrape fetches /metrics and parses every sample line into a
// name{labels} → value map.
func scrape(t *testing.T, url string) (samples map[string]float64, contentType, raw string) {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	raw = string(b)
	samples = make(map[string]float64)
	for _, line := range strings.Split(raw, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("/metrics: malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("/metrics: bad value in %q: %v", line, err)
		}
		if _, dup := samples[line[:i]]; dup {
			t.Fatalf("/metrics: duplicate sample %q", line[:i])
		}
		samples[line[:i]] = v
	}
	return samples, resp.Header.Get("Content-Type"), raw
}

// TestMetricsExposition is the /metrics golden test: content type,
// required metric families, histogram well-formedness, and counter
// monotonicity across two scrapes with traffic in between.
func TestMetricsExposition(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(store.Options{Shards: 4, DataDir: dir, Fsync: store.FsyncAlways, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	ts := httptest.NewServer(NewHandler(st, Options{}))
	t.Cleanup(ts.Close)

	traffic := func(n int) {
		for i := 0; i < n; i++ {
			if code, _ := do(t, "PUT", fmt.Sprintf("%s/docs/m%d", ts.URL, i), fmt.Sprintf(`{"k":%d}`, i)); code != 200 {
				t.Fatalf("put m%d", i)
			}
		}
		do(t, "GET", ts.URL+"/docs/m0", "")
		do(t, "POST", ts.URL+"/query", `{"lang":"mongo","query":"{\"k\":1}"}`)
		do(t, "POST", ts.URL+"/query", `{"lang":"mongo","query":"{\"k\":{\"$ne\":1}}"}`)
	}
	traffic(4)

	s1, contentType, raw := scrape(t, ts.URL)
	if contentType != metrics.ContentType {
		t.Fatalf("content type = %q, want %q", contentType, metrics.ContentType)
	}

	// Required families, spanning every subsystem the ISSUE names:
	// store gauges, query/planner counters, candidates and fan-out
	// histograms, plan cache, durability, tracing, Go runtime, HTTP
	// middleware.
	required := []string{
		"jsonstored_slow_queries_total",
		"jsonstored_traces_started_total",
		"jsonstored_traces_sampled_total",
		"jsonstored_traces_dropped_total",
		"jsonstored_trace_ring_entries",
		"jsonstored_go_goroutines",
		"jsonstored_go_heap_alloc_bytes",
		"jsonstored_go_heap_sys_bytes",
		"jsonstored_go_gc_total",
		`jsonstored_go_gc_pause_seconds_bucket{le="+Inf"}`,
		"jsonstored_go_gc_pause_seconds_count",
		"jsonstored_docs",
		"jsonstored_index_terms",
		`jsonstored_queries_total{mode="find",access="index"}`,
		`jsonstored_queries_total{mode="find",access="scan"}`,
		"jsonstored_candidate_docs_total",
		"jsonstored_scanned_docs_total",
		"jsonstored_planner_scan_total",
		"jsonstored_planner_terms_skipped_total",
		`jsonstored_query_candidates_bucket{mode="find",le="+Inf"}`,
		`jsonstored_query_candidates_count{mode="find"}`,
		`jsonstored_query_fanout_workers_bucket{le="+Inf"}`,
		"jsonstored_intersection_steps_total",
		"jsonstored_cancellations_total",
		`jsonstored_sheds_total{reason="query_gate"}`,
		`jsonstored_sheds_total{reason="bulk_bytes"}`,
		`jsonstored_sheds_total{reason="draining"}`,
		"jsonstored_gate_waits_total",
		"jsonstored_degraded",
		"jsonstored_degraded_shards",
		"jsonstored_wal_retry_total",
		"jsonstored_wal_heal_total",
		"jsonstored_plan_cache_hits_total",
		"jsonstored_plan_cache_misses_total",
		"jsonstored_plan_cache_entries",
		"jsonstored_wal_appends_total",
		"jsonstored_wal_syncs_total",
		"jsonstored_segments",
		"jsonstored_segment_bytes",
		"jsonstored_segment_docs",
		"jsonstored_memtable_docs",
		"jsonstored_compactions_total",
		"jsonstored_recovery_segments_mapped",
		"jsonstored_recovery_invalid_segments",
		"jsonstored_recovery_wal_records_replayed",
		`jsonstored_http_requests_total{endpoint="put_doc",code="200"}`,
		`jsonstored_http_request_duration_seconds_bucket{endpoint="query",le="+Inf"}`,
		`jsonstored_http_request_duration_seconds_sum{endpoint="put_doc"}`,
		`jsonstored_http_request_duration_seconds_count{endpoint="get_doc"}`,
	}
	for _, name := range required {
		if _, ok := s1[name]; !ok {
			t.Errorf("missing required sample %s", name)
		}
	}
	if t.Failed() {
		t.Fatalf("exposition:\n%s", raw)
	}

	// Every family has exactly one HELP and one TYPE line.
	for _, fam := range []string{"jsonstored_queries_total", "jsonstored_query_candidates", "jsonstored_http_request_duration_seconds"} {
		if n := strings.Count(raw, "# TYPE "+fam+" "); n != 1 {
			t.Errorf("family %s has %d TYPE lines", fam, n)
		}
		if n := strings.Count(raw, "# HELP "+fam+" "); n != 1 {
			t.Errorf("family %s has %d HELP lines", fam, n)
		}
	}

	// Concrete values the traffic above fixes exactly.
	if got := s1[`jsonstored_http_requests_total{endpoint="put_doc",code="200"}`]; got != 4 {
		t.Errorf("put_doc requests = %v, want 4", got)
	}
	if got := s1["jsonstored_docs"]; got != 4 {
		t.Errorf("docs gauge = %v, want 4", got)
	}
	if got := s1["jsonstored_wal_appends_total"]; got != 4 {
		t.Errorf("wal appends = %v, want 4", got)
	}

	// Histogram sanity: bucket counts are cumulative (monotone in le
	// within one scrape) and +Inf equals _count.
	hist := `jsonstored_http_request_duration_seconds`
	inf := s1[hist+`_bucket{endpoint="put_doc",le="+Inf"}`]
	if inf != s1[hist+`_count{endpoint="put_doc"}`] || inf != 4 {
		t.Errorf("+Inf bucket %v != count %v (want 4)", inf, s1[hist+`_count{endpoint="put_doc"}`])
	}

	traffic(4)
	s2, _, _ := scrape(t, ts.URL)

	// Counter monotonicity: no *_total or histogram sample goes
	// backwards between scrapes, and the request counters provably
	// advanced.
	for name, v1 := range s1 {
		if !strings.Contains(name, "_total") && !strings.Contains(name, "_bucket") && !strings.Contains(name, "_count") && !strings.Contains(name, "_sum") {
			continue
		}
		if v2, ok := s2[name]; ok && v2 < v1 {
			t.Errorf("counter %s went backwards: %v -> %v", name, v1, v2)
		}
	}
	if s2[`jsonstored_http_requests_total{endpoint="put_doc",code="200"}`] != 8 {
		t.Errorf("put_doc requests after second round = %v, want 8",
			s2[`jsonstored_http_requests_total{endpoint="put_doc",code="200"}`])
	}
	if s2["jsonstored_plan_cache_hits_total"] <= s1["jsonstored_plan_cache_hits_total"] {
		t.Errorf("plan cache hits did not advance: %v -> %v",
			s1["jsonstored_plan_cache_hits_total"], s2["jsonstored_plan_cache_hits_total"])
	}
	// The scrape instruments itself: the first scrape is visible in
	// the second.
	if s2[`jsonstored_http_requests_total{endpoint="metrics",code="200"}`] < 1 {
		t.Errorf("metrics endpoint not self-instrumented")
	}

	// Tier accounting: before any compaction everything lives in the
	// memtable; a snapshot moves it into one segment per shard and the
	// gauges follow.
	if s2["jsonstored_memtable_docs"] != 4 || s2["jsonstored_segments"] != 0 {
		t.Errorf("pre-compaction tiers: memtable %v segments %v, want 4 and 0",
			s2["jsonstored_memtable_docs"], s2["jsonstored_segments"])
	}
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	s3, _, _ := scrape(t, ts.URL)
	if s3["jsonstored_segments"] != 4 || s3["jsonstored_segment_docs"] != 4 || s3["jsonstored_memtable_docs"] != 0 {
		t.Errorf("post-compaction tiers: segments %v segment_docs %v memtable %v, want 4/4/0",
			s3["jsonstored_segments"], s3["jsonstored_segment_docs"], s3["jsonstored_memtable_docs"])
	}
	if s3["jsonstored_compactions_total"] != 4 || s3["jsonstored_segment_bytes"] == 0 {
		t.Errorf("post-compaction: compactions %v segment_bytes %v, want 4 and nonzero",
			s3["jsonstored_compactions_total"], s3["jsonstored_segment_bytes"])
	}
}
