// Command jsonstored serves a sharded, path-indexed document store
// (internal/store) over HTTP, with query evaluation through the shared
// plan-caching engine (internal/engine) and optional durability: with
// -data-dir every put and delete is written ahead to a per-shard log
// before it is acknowledged, shards are snapshotted in the background,
// and a restart recovers the collection (snapshot + WAL tail replay,
// torn tails truncated, index rebuilt).
//
// The HTTP surface itself lives in internal/httpapi so tests and the
// load generator (cmd/jsonload) can assemble an in-process daemon;
// this command owns flags, the listener, logging and the shutdown
// protocol.
//
// Endpoints (see README.md in this directory for the full API
// reference):
//
//	PUT    /docs/{id}   store the JSON document in the request body
//	GET    /docs/{id}   fetch a document
//	DELETE /docs/{id}   delete a document
//	POST   /bulk        NDJSON bulk ingest (one document per line)
//	POST   /query       {"lang","query","mode":"find"|"select","values":bool}
//	POST   /explain     like /query, but returns the logical and
//	                    physical plan trees, the chosen access path,
//	                    estimated vs actual cardinalities and the
//	                    recorded per-stage trace
//	POST   /validate    {"lang","query","id"} or {"lang","query","doc"}
//	GET    /stats       shard sizes, index cardinalities, query counters,
//	                    planner decisions, candidates-per-query and
//	                    fan-out-parallelism histograms, intersection-step
//	                    totals, plan-cache hit rates,
//	                    WAL/snapshot/recovery stats
//	GET    /metrics     the same counters plus per-endpoint request
//	                    latency histograms, slow-query/tracing counters
//	                    and Go runtime families, in Prometheus text
//	                    exposition format
//	GET    /debug/queries  the slow-query ring: recently kept traces
//	                    (slow or sampled), newest first, with the query
//	                    source and full span tree
//
// Documents use the paper's value model: objects, arrays, strings and
// natural numbers. See examples/storequery for a curl walkthrough.
//
// Usage:
//
//	jsonstored [-addr :8080] [-shards 16] [-cache 256] [-index-depth 16]
//	           [-query-workers N] [-data-dir DIR]
//	           [-fsync always|interval|off] [-fsync-interval 100ms]
//	           [-snapshot-every 10000]
//	           [-segment-block-size 128] [-segment-no-mmap]
//	           [-schema FILE] [-semantic-budget 50000]
//	           [-slow-query 200ms] [-trace-sample N] [-trace-ring 64]
//	           [-query-timeout 0] [-max-concurrent-queries 0]
//	           [-max-queued-queries 0] [-max-bulk-bytes 0]
//	           [-degraded-retry 500ms]
//	           [-debug-addr :6060] [-log-format text|json]
//
// Without -data-dir the store is in-memory and dies with the process.
// The semantic pass (on by default, budget 50000 automaton steps per
// plan-cache miss; -semantic-budget 0 disables) proves queries
// unsatisfiable at compile time — they answer empty without touching
// the index — and reuses cached plans for provably-equivalent queries.
// With -schema FILE every write must conform to the JSON Schema
// (nonconforming documents are rejected with 422) and the planner
// additionally prunes index terms the schema proves universal; see
// README.md for a worked /explain example.
// Queries at or over -slow-query are traced retroactively, logged and
// kept in the /debug/queries ring (0 traces every query; negative
// disables); -trace-sample N additionally keeps every Nth query.
// -debug-addr serves net/http/pprof on a separate listener.
//
// -query-timeout bounds each /query and /explain execution server-side
// (a request overrides it with an X-Timeout-Ms header; expiry returns
// 504 with the partial trace preserved). -max-concurrent-queries and
// -max-queued-queries bound in-flight query work: excess requests wait
// in the bounded queue and are shed with 429 + Retry-After once it
// fills. -max-bulk-bytes bounds the bytes of concurrently admitted
// bulk uploads the same way. If a shard's WAL fails (disk full, I/O
// error) the shard degrades to read-only — writes return 503 while
// reads keep serving — and a background probe retries with backoff
// (starting at -degraded-retry, doubling to 30s) until the shard
// heals. On SIGINT/SIGTERM the daemon stops accepting
// connections, answers new requests 503 (drain mode), drains in-flight
// requests, flushes and fsyncs the WAL, and exits; a second SIGINT
// during the drain kills the process immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"jsonlogic/internal/engine"
	"jsonlogic/internal/httpapi"
	"jsonlogic/internal/schema"
	"jsonlogic/internal/store"
	"jsonlogic/internal/trace"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	shards := flag.Int("shards", 16, "shard count (rounded up to a power of two; pinned by the manifest of an existing -data-dir)")
	cache := flag.Int("cache", 256, "plan cache capacity")
	indexDepth := flag.Int("index-depth", 16, "maximum indexed path depth")
	queryWorkers := flag.Int("query-workers", 0, "shards probed and evaluated concurrently per query (0: GOMAXPROCS)")
	dataDir := flag.String("data-dir", "", "durable storage directory (empty: in-memory only)")
	fsync := flag.String("fsync", "always", "WAL fsync policy: always, interval or off")
	fsyncInterval := flag.Duration("fsync-interval", 100*time.Millisecond, "sync period under -fsync interval")
	snapshotEvery := flag.Int("snapshot-every", 10000, "snapshot a shard once its WAL segment holds this many records (negative: manual snapshots only)")
	segmentBlockSize := flag.Int("segment-block-size", 0, "ordinals per compressed posting block in segment files (0: default 128)")
	segmentNoMmap := flag.Bool("segment-no-mmap", false, "read segment files into the heap instead of mmap'ing them")
	slowQuery := flag.Duration("slow-query", 200*time.Millisecond, "slow-query threshold: queries at or over it are traced, logged and kept in /debug/queries (0: every query; negative: disabled)")
	traceSample := flag.Int("trace-sample", 0, "additionally trace 1 in N queries (0: no sampling)")
	traceRing := flag.Int("trace-ring", trace.DefaultRingSize, "kept traces retained for /debug/queries")
	debugAddr := flag.String("debug-addr", "", "separate listen address for net/http/pprof (empty: disabled)")
	logFormat := flag.String("log-format", "text", "structured log format: text or json")
	schemaFile := flag.String("schema", "", "JSON Schema file every stored document must conform to; also drives semantic term pruning (empty: no schema)")
	semanticBudget := flag.Int("semantic-budget", 50000, "automaton-step budget for the semantic pass (satisfiability, containment dedup, schema pruning) per plan-cache miss (0: disabled)")
	queryTimeout := flag.Duration("query-timeout", 0, "server-side bound on each /query and /explain execution, overridable per request with X-Timeout-Ms (0: none)")
	maxConcurrentQueries := flag.Int("max-concurrent-queries", 0, "in-flight /query and /explain bound; excess requests queue briefly then shed with 429 (0: unbounded)")
	maxQueuedQueries := flag.Int("max-queued-queries", 0, "admission-queue depth behind -max-concurrent-queries (0: twice the concurrency bound)")
	maxBulkBytes := flag.Int64("max-bulk-bytes", 0, "total bytes of concurrently admitted /bulk uploads; excess uploads shed with 429 (0: unbounded)")
	degradedRetry := flag.Duration("degraded-retry", 0, "initial backoff between heal attempts on a degraded shard and retries of a failed snapshot, doubling to 30s (0: default 500ms)")
	flag.Parse()

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		slog.Error("unknown -log-format", "format", *logFormat)
		os.Exit(1)
	}
	logger := slog.New(handler)
	slog.SetDefault(logger)

	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	policy, err := store.ParseFsyncPolicy(*fsync)
	if err != nil {
		fatal("bad -fsync", "err", err)
	}
	if *snapshotEvery == 0 {
		// 0 is the library's "use the default" zero value; an operator
		// typing it almost certainly meant "never" — make them say so.
		fatal("-snapshot-every 0 is ambiguous: use a negative value to disable automatic snapshots")
	}
	var schemaInfo *engine.SchemaInfo
	if *schemaFile != "" {
		raw, err := os.ReadFile(*schemaFile)
		if err != nil {
			fatal("read -schema", "err", err)
		}
		sch, err := schema.Parse(string(raw))
		if err != nil {
			fatal("parse -schema", "file", *schemaFile, "err", err)
		}
		schemaInfo, err = engine.CompileSchema(sch)
		if err != nil {
			fatal("compile -schema", "file", *schemaFile, "err", err)
		}
	}
	eng := engine.New(engine.Options{
		PlanCacheSize:  *cache,
		SemanticBudget: *semanticBudget,
		Schema:         schemaInfo,
	})
	opts := store.Options{
		Shards:           *shards,
		MaxIndexDepth:    *indexDepth,
		Engine:           eng,
		QueryWorkers:     *queryWorkers,
		DataDir:          *dataDir,
		Fsync:            policy,
		FsyncInterval:    *fsyncInterval,
		SnapshotEvery:    *snapshotEvery,
		SegmentBlockSize: *segmentBlockSize,
		SegmentNoMmap:    *segmentNoMmap,
		Schema:           schemaInfo,
		DegradedRetry:    *degradedRetry,
	}
	var st *store.Store
	if *dataDir == "" {
		st = store.New(opts)
		logger.Info("in-memory store (no -data-dir; documents die with the process)")
	} else {
		st, err = store.Open(opts)
		if err != nil {
			fatal("open store", "err", err)
		}
		rec := st.Stats().Durability.Recovery
		logger.Info("recovered store",
			"dir", *dataDir, "docs", st.Len(),
			"segments_mapped", rec.SegmentsMapped,
			"segment_docs", rec.SegmentDocs,
			"invalid_segments", rec.InvalidSegments,
			"wal_records_replayed", rec.WALRecordsReplayed,
			"torn_tails", rec.TornTails,
			"fsync", policy.String())
	}

	tracer := trace.New(trace.Options{
		SampleEvery: *traceSample,
		SlowQuery:   *slowQuery,
		RingSize:    *traceRing,
		Logger:      logger,
	})

	api := httpapi.NewHandler(st, httpapi.Options{
		Tracer:               tracer,
		QueryTimeout:         *queryTimeout,
		MaxConcurrentQueries: *maxConcurrentQueries,
		MaxQueuedQueries:     *maxQueuedQueries,
		MaxBulkBytes:         *maxBulkBytes,
	})
	srv := &http.Server{
		Addr:    *addr,
		Handler: api,
		// Bound slow/stalled peers; no ReadTimeout so large legitimate
		// bulk uploads are not cut off mid-body.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	if *debugAddr != "" {
		// pprof on its own listener, never on the serving address: the
		// profiles stay reachable when the API is saturated, and the
		// serving port exposes no profiling surface.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			logger.Info("pprof listening", "addr", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, dmux); err != nil {
				logger.Error("pprof server", "err", err)
			}
		}()
	}

	// Graceful shutdown: stop accepting, drain in-flight requests, then
	// flush + fsync the WAL so a clean stop loses nothing even under
	// -fsync off.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("listening",
		"addr", *addr, "shards", st.NumShards(), "plan_cache", *cache,
		"semantic_budget", *semanticBudget, "schema", *schemaFile,
		"slow_query", slowQuery.String(), "trace_sample", *traceSample)

	select {
	case err := <-errc:
		st.Close()
		fatal("serve", "err", err)
	case <-ctx.Done():
	}
	// Unregister the signal handler before draining, not at exit: with
	// NotifyContext still armed a second Ctrl-C was swallowed (the
	// already-cancelled context absorbs it), leaving no way to kill a
	// drain stuck behind slow requests. After cancel() the default
	// disposition is restored, so a repeat SIGINT terminates
	// immediately.
	cancel()
	// Flip the handler into drain mode before Shutdown: new requests on
	// kept-alive connections get an immediate 503 + Retry-After (load
	// balancers fail over at once) while the in-flight ones below drain
	// normally. The introspection endpoints stay up for observers.
	api.SetDraining(true)
	logger.Info("shutting down (^C again to kill)")
	shutdownCtx, shutdownCancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer shutdownCancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			logger.Warn("shutdown: drain timed out after 15s; remaining connections were cut off")
		} else {
			logger.Warn("shutdown", "err", err)
		}
	}
	if err := st.Close(); err != nil {
		fatal("close store", "err", err)
	}
	logger.Info("store flushed; bye")
}
