package store

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"jsonlogic/internal/engine"
	"jsonlogic/internal/jsontree"
	"jsonlogic/internal/metrics"
)

// Options configure a Store. The zero value selects 16 shards, an
// index depth bound of 16 and a fresh default Engine; the durability
// fields matter only to Open.
type Options struct {
	// Shards is the shard count, rounded up to a power of two
	// (default 16). For a durable store the count is pinned by the
	// data directory's manifest on reopen.
	Shards int
	// MaxIndexDepth bounds the indexed path depth; facts deeper than
	// the bound fall back to scanning (default 16).
	MaxIndexDepth int
	// Engine is the plan compiler/evaluator the store queries with. If
	// nil a default engine.New(engine.Options{}) is created; servers
	// share one engine between the store and their own endpoints so
	// plan-cache statistics cover all traffic.
	Engine *engine.Engine
	// QueryWorkers bounds how many shards one query probes and
	// evaluates concurrently (default runtime.GOMAXPROCS(0)). 1 runs
	// every query serially.
	QueryWorkers int
	// Schema, when set, makes the store enforce the compiled schema on
	// every write (Put, bulk ingest, recovery replay): nonconforming
	// documents are refused with ErrSchema. Enforcement is what makes
	// the engine's schema-aware semantic verdicts usable here — a
	// schema-unsatisfiable query short-circuits to an empty answer and
	// schema-universal index terms are pruned, both sound only because
	// every resident document is known to conform. Share the same
	// SchemaInfo with engine.Options.Schema.
	Schema *engine.SchemaInfo

	// DataDir roots the write-ahead logs and snapshots of a durable
	// store. Open requires it; New ignores it.
	DataDir string
	// Fsync selects the WAL durability guarantee (default FsyncAlways;
	// see FsyncPolicy).
	Fsync FsyncPolicy
	// FsyncInterval is the background sync period under FsyncInterval
	// (and the flush period under FsyncOff); default 100ms.
	FsyncInterval time.Duration
	// SnapshotEvery triggers a background snapshot of a shard once its
	// active WAL segment holds that many records (default 10000).
	// Negative disables automatic snapshots; Snapshot still works.
	SnapshotEvery int
	// SegmentBlockSize is the posting-list block length for newly
	// written segment files (default 128, capped at 32768). Existing
	// segments carry their own block size in the footer, so the option
	// only shapes future writes.
	SegmentBlockSize int
	// SegmentNoMmap reads segment files into the heap instead of
	// mapping them — the forced portability fallback (platforms
	// without mmap always use it). Correctness is identical; the
	// kernel just stops managing residency.
	SegmentNoMmap bool
	// VFS is the filesystem the durable layers (WAL, snapshots,
	// segments, recovery) perform their file operations through. Nil
	// selects the real OS filesystem; the chaos tests inject a
	// FaultFS here. The LOCK file and mmap bypass the seam (see
	// vfs.go).
	VFS VFS
	// DegradedRetry is the initial backoff between heal attempts on a
	// degraded shard, and between retries of a failed background
	// snapshot; it doubles per failure up to 30s (default 500ms).
	DegradedRetry time.Duration
}

const (
	defaultShards        = 16
	defaultMaxIndexDepth = 16
	defaultFsyncInterval = 100 * time.Millisecond
	defaultSnapshotEvery = 10000
	defaultDegradedRetry = 500 * time.Millisecond
)

// Store is a sharded, goroutine-safe document collection with an
// inverted path index. All methods may be called concurrently. See the
// package documentation for the architecture.
type Store struct {
	shards []*shard
	mask   uint64
	eng    *engine.Engine
	opts   Options
	dur    *durability // nil for in-memory stores

	seq atomic.Uint64 // auto-ID counter for bulk ingest

	// Query counters (Stats).
	findIndexed   atomic.Uint64
	findScan      atomic.Uint64
	selectIndexed atomic.Uint64
	selectScan    atomic.Uint64
	candidateDocs atomic.Uint64
	scannedDocs   atomic.Uint64

	// Planner counters and per-query candidate histograms.
	plannerScan      atomic.Uint64
	termsSkipped     atomic.Uint64
	findCandidates   metrics.Histogram
	selectCandidates metrics.Histogram

	// Fan-out and intersection counters: how queries parallelize and
	// how much merge work posting intersections perform.
	parallelQueries   atomic.Uint64
	serialQueries     atomic.Uint64
	fanoutWorkers     metrics.Histogram
	intersectionSteps atomic.Uint64

	// Semantic-planner counters: queries answered from a compile-time
	// emptiness proof, index terms the schema proved universal, and
	// writes refused by schema enforcement.
	semShortCircuits atomic.Uint64
	termsPruned      atomic.Uint64
	schemaRejects    atomic.Uint64

	// cancellations counts queries that ended early because their
	// context was cancelled or its deadline expired.
	cancellations atomic.Uint64
}

// shard owns a partition of the documents: a mutable memtable (the
// pathIndex — dictionary plus inverted index) layered over an
// immutable mmap'd segment. The two tiers are disjoint by invariant —
// a put that shadows a segment document tombstones its segment
// ordinal — so a lookup consults the memtable first and the segment's
// live remainder second, and a probe unions two per-tier
// intersections. One RWMutex guards the whole shard; segDead and
// segLive mutate only under the write lock, while the segment's bytes
// and its resolve cache are safe under the read lock (immutable bytes,
// atomic cache).
type shard struct {
	mu sync.RWMutex
	ix *pathIndex

	seg     *segmentReader // nil until the first snapshot/recovery maps one
	segDead []uint64       // tombstone bitmap over seg ordinals
	segLive int            // segment docs not tombstoned
}

// live is the shard's document count: memtable plus the segment's
// untombstoned remainder. Caller holds the lock (either mode).
func (sh *shard) live() int { return sh.ix.live() + sh.segLive }

// getDoc looks id up across both tiers. A segment resolve failure
// (impossible short of the mapping changing under us) reads as
// absent; the query paths, which can return errors, surface it
// instead. Caller holds the lock (either mode).
func (sh *shard) getDoc(id string) (*jsontree.Tree, bool) {
	if t, ok := sh.ix.get(id); ok {
		return t, true
	}
	if sh.seg != nil {
		if ord, ok := sh.seg.lookup(id); ok && !bitGet(sh.segDead, ord) {
			d, err := sh.seg.resolve(ord)
			if err != nil {
				return nil, false
			}
			return d.tree, true
		}
	}
	return nil, false
}

// has reports whether id is live in either tier without resolving it.
func (sh *shard) has(id string) bool {
	if _, ok := sh.ix.get(id); ok {
		return true
	}
	if sh.seg != nil {
		if ord, ok := sh.seg.lookup(id); ok && !bitGet(sh.segDead, ord) {
			return true
		}
	}
	return false
}

// shadowSeg tombstones id's segment ordinal if it is live there — the
// write half of the disjointness invariant. Caller holds the write
// lock.
func (sh *shard) shadowSeg(id string) {
	if sh.seg == nil {
		return
	}
	if ord, ok := sh.seg.lookup(id); ok && !bitGet(sh.segDead, ord) {
		bitSet(sh.segDead, ord)
		sh.segLive--
	}
}

// del removes id from whichever tier holds it and reports whether it
// was live. Caller holds the write lock.
func (sh *shard) del(id string) bool {
	if _, ok := sh.ix.remove(id); ok {
		return true
	}
	if sh.seg != nil {
		if ord, ok := sh.seg.lookup(id); ok && !bitGet(sh.segDead, ord) {
			bitSet(sh.segDead, ord)
			sh.segLive--
			return true
		}
	}
	return false
}

// each calls fn for every live document in the shard: memtable first,
// then the segment's live remainder (which resolves lazily and can
// therefore fail). Caller holds the lock (either mode).
func (sh *shard) each(fn func(id string, t *jsontree.Tree)) error {
	sh.ix.each(fn)
	if sh.seg == nil {
		return nil
	}
	return sh.seg.each(sh.segDead, fn)
}

// New returns an empty in-memory Store. See Open for the durable
// variant backed by a write-ahead log and snapshots.
func New(opts Options) *Store {
	return newStore(normalizeOptions(opts))
}

// normalizeOptions fills defaults and rounds the shard count up to a
// power of two.
func normalizeOptions(opts Options) Options {
	if opts.Shards <= 0 {
		opts.Shards = defaultShards
	}
	n := 1
	for n < opts.Shards {
		n <<= 1
	}
	opts.Shards = n
	if opts.MaxIndexDepth <= 0 {
		opts.MaxIndexDepth = defaultMaxIndexDepth
	}
	if opts.Engine == nil {
		opts.Engine = engine.New(engine.Options{})
	}
	if opts.QueryWorkers <= 0 {
		opts.QueryWorkers = runtime.GOMAXPROCS(0)
	}
	if opts.FsyncInterval <= 0 {
		opts.FsyncInterval = defaultFsyncInterval
	}
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = defaultSnapshotEvery
	}
	if opts.SegmentBlockSize <= 0 {
		opts.SegmentBlockSize = defaultSegmentBlockSize
	}
	if opts.SegmentBlockSize > maxSegmentBlockSize {
		opts.SegmentBlockSize = maxSegmentBlockSize
	}
	if opts.VFS == nil {
		opts.VFS = osFS{}
	}
	if opts.DegradedRetry <= 0 {
		opts.DegradedRetry = defaultDegradedRetry
	}
	return opts
}

// newStore builds the in-memory skeleton from normalized options.
func newStore(opts Options) *Store {
	s := &Store{
		shards: make([]*shard, opts.Shards),
		mask:   uint64(opts.Shards - 1),
		eng:    opts.Engine,
		opts:   opts,
	}
	for i := range s.shards {
		s.shards[i] = &shard{ix: newPathIndex(opts.MaxIndexDepth)}
	}
	return s
}

// Engine returns the engine the store compiles and evaluates with.
func (s *Store) Engine() *engine.Engine { return s.eng }

// setQueryWorkers overrides the per-query fan-out bound, returning the
// previous value; the fan-out benchmarks use it to compare serial and
// parallel execution on one populated store. Not safe to call
// concurrently with queries.
func (s *Store) setQueryWorkers(n int) int {
	prev := s.opts.QueryWorkers
	if n > 0 {
		s.opts.QueryWorkers = n
	}
	return prev
}

// NumShards returns the shard count.
func (s *Store) NumShards() int { return len(s.shards) }

func (s *Store) shardIndex(id string) uint64 {
	return fnvString(fnvOffset, id) & s.mask
}

func (s *Store) shardFor(id string) *shard {
	return s.shards[s.shardIndex(id)]
}

// memPut applies a put to the in-memory maps and index only (no WAL):
// the shared tail of PutTree and recovery replay. Callers either hold
// the shard lock's equivalent (Open is single-threaded) or lock here.
func (s *Store) memPut(id string, t *jsontree.Tree) {
	sh := s.shardFor(id)
	sh.put(id, t)
}

// memDelete is memPut's delete counterpart.
func (s *Store) memDelete(id string) {
	s.shardFor(id).del(id)
}

// put applies an insert/replace to one shard; the caller holds the
// shard lock (or is the single-threaded recovery path). A put that
// shadows a segment document tombstones its segment ordinal, keeping
// the tiers disjoint.
func (sh *shard) put(id string, t *jsontree.Tree) {
	sh.shadowSeg(id)
	sh.ix.put(id, t)
}

// ErrSchema rejects a write whose document does not conform to the
// store's configured schema (Options.Schema). Wrapped errors carry the
// document ID; match with errors.Is.
var ErrSchema = errors.New("document does not conform to the configured schema")

// ErrDegraded refuses a write to a shard in degraded read-only mode:
// its write-ahead log hit an I/O failure (disk full, device error)
// and until the background probe heals it — fresh WAL generation plus
// a segment re-capturing the shard's state — accepting writes would
// let memory and disk diverge. Reads keep serving throughout. The
// daemon maps it to 503 with Retry-After, distinct from ErrWAL's 500:
// a degraded shard is a known, recovering condition, not a fresh
// fault. Match with errors.Is.
var ErrDegraded = errors.New("shard degraded (write-ahead log failure): read-only until the log heals")

// degradedErr gates a write on w's degraded flag, returning the
// 503-mapped refusal when the shard is read-only. Checked before the
// shard lock: degraded writes shed without contending with readers.
func degradedErr(w *shardWAL, what string) error {
	if w != nil && w.degraded.Load() {
		return fmt.Errorf("store: %s: shard %d: %w", what, w.shard, ErrDegraded)
	}
	return nil
}

// validateSchema enforces the configured schema on a write, counting
// and refusing nonconforming documents; what describes the write for
// the error message (`put "id"`, `bulk line 3`). A nil Options.Schema
// accepts everything.
func (s *Store) validateSchema(what string, t *jsontree.Tree) error {
	if s.opts.Schema == nil {
		return nil
	}
	ok, err := s.eng.Validate(context.TODO(), s.opts.Schema.Plan(), t)
	if err != nil {
		return fmt.Errorf("store: %s: schema validation: %w", what, err)
	}
	if !ok {
		s.schemaRejects.Add(1)
		return fmt.Errorf("store: %s: %w", what, ErrSchema)
	}
	return nil
}

// Put parses a JSON document and stores it under id, replacing any
// previous document with that ID.
func (s *Store) Put(id, doc string) error {
	t, err := jsontree.Parse(doc)
	if err != nil {
		return fmt.Errorf("store: put %q: %w", id, err)
	}
	return s.PutTree(id, t)
}

// PutTree stores an already-built tree under id, replacing any previous
// document. The tree must not be mutated afterwards (jsontree.Tree is
// immutable by construction, so this holds for all library-built
// trees). On a durable store the mutation is WAL-logged before it is
// applied; in-memory stores always return nil. A returned error means
// the write is not durable: if the log append itself failed the write
// was not applied at all, while a failed commit fsync leaves the write
// applied in memory with unknown on-disk fate — the WAL's sticky error
// then refuses every further write, so memory cannot silently diverge
// further.
func (s *Store) PutTree(id string, t *jsontree.Tree) error {
	if err := s.validateSchema(fmt.Sprintf("put %q", id), t); err != nil {
		return err
	}
	var (
		w   *shardWAL
		seq uint64
		rec walRecord
	)
	if s.dur != nil {
		w = s.dur.wals[s.shardIndex(id)]
		if err := degradedErr(w, fmt.Sprintf("put %q", id)); err != nil {
			return err
		}
		// Render outside the lock; trees are immutable.
		rec = walRecord{op: opPut, id: id, doc: t.String()}
	}
	sh := s.shardFor(id)
	sh.mu.Lock()
	if w != nil {
		var err error
		if seq, err = w.append(rec); err != nil {
			sh.mu.Unlock()
			return err
		}
	}
	sh.put(id, t)
	sh.mu.Unlock()
	if w != nil {
		return w.commit(seq)
	}
	return nil
}

// putTreeIfAbsent stores t under id only when the ID is free, with the
// existence check and the insert under one shard lock — the atomicity
// bulk ingest's auto-ID assignment relies on to never clobber a
// concurrently stored document. The WAL record is buffered but not
// forced durable: the only caller, bulk ingest, batches the force
// (commitBulk) at the end of the stream.
func (s *Store) putTreeIfAbsent(id string, t *jsontree.Tree) (bool, error) {
	var (
		w   *shardWAL
		rec walRecord
	)
	if s.dur != nil {
		w = s.dur.wals[s.shardIndex(id)]
		if err := degradedErr(w, fmt.Sprintf("bulk put %q", id)); err != nil {
			return false, err
		}
		// Render outside the lock (as PutTree does); on the rare
		// ID-collision retry the render is wasted, which is cheaper
		// than serializing it against the shard's readers.
		rec = walRecord{op: opPut, id: id, doc: t.String()}
	}
	sh := s.shardFor(id)
	sh.mu.Lock()
	if sh.has(id) {
		sh.mu.Unlock()
		return false, nil
	}
	if w != nil {
		if _, err := w.append(rec); err != nil {
			sh.mu.Unlock()
			return false, err
		}
	}
	sh.ix.add(id, t)
	sh.mu.Unlock()
	return true, nil
}

// Get returns the document stored under id, resolving through either
// tier (a segment-resident document parses and caches on first
// access).
func (s *Store) Get(id string) (*jsontree.Tree, bool) {
	sh := s.shardFor(id)
	sh.mu.RLock()
	t, ok := sh.getDoc(id)
	sh.mu.RUnlock()
	return t, ok
}

// Delete removes the document stored under id, unwinding its index
// entries, and reports whether it existed. On a durable store the
// delete is WAL-logged before it is applied; a failed log append
// leaves the document in place, while a failed commit fsync returns
// (true, err) with the delete applied in memory but not provably
// durable (further writes are then refused, as with PutTree).
func (s *Store) Delete(id string) (bool, error) {
	var (
		w   *shardWAL
		seq uint64
	)
	if s.dur != nil {
		w = s.dur.wals[s.shardIndex(id)]
		if err := degradedErr(w, fmt.Sprintf("delete %q", id)); err != nil {
			return false, err
		}
	}
	sh := s.shardFor(id)
	sh.mu.Lock()
	if !sh.has(id) {
		sh.mu.Unlock()
		return false, nil
	}
	if w != nil {
		var err error
		if seq, err = w.append(walRecord{op: opDelete, id: id}); err != nil {
			sh.mu.Unlock()
			return false, err
		}
	}
	sh.del(id)
	sh.mu.Unlock()
	if w != nil {
		return true, w.commit(seq)
	}
	return true, nil
}

// Len returns the number of stored documents across both tiers.
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += sh.live()
		sh.mu.RUnlock()
	}
	return n
}

// ShardStats describes one shard for Stats.
type ShardStats struct {
	Docs     int `json:"docs"`
	Terms    int `json:"terms"`
	Postings int `json:"postings"`
}

// QueryStats aggregates the store's query counters.
type QueryStats struct {
	// FindIndexed / FindScan count Find calls answered via the index
	// versus by full scan; SelectIndexed / SelectScan likewise for
	// Select.
	FindIndexed   uint64 `json:"find_indexed"`
	FindScan      uint64 `json:"find_scan"`
	SelectIndexed uint64 `json:"select_indexed"`
	SelectScan    uint64 `json:"select_scan"`
	// CandidateDocs counts documents evaluated on indexed queries;
	// ScannedDocs counts documents evaluated on scans. Their ratio is
	// the index's pruning power.
	CandidateDocs uint64 `json:"candidate_docs"`
	ScannedDocs   uint64 `json:"scanned_docs"`
	// PlannerScan counts queries with index-supported facts that the
	// cost-based planner nevertheless sent to a scan (unselective
	// intersection); TermsSkipped counts near-useless terms it dropped
	// from intersections.
	PlannerScan  uint64 `json:"planner_scan"`
	TermsSkipped uint64 `json:"terms_skipped"`
	// FindCandidates / SelectCandidates are per-query histograms of
	// candidate-set sizes on indexed queries, replacing the old single
	// running counter as the pruning-power signal.
	FindCandidates   []HistogramBucket `json:"find_candidates,omitempty"`
	SelectCandidates []HistogramBucket `json:"select_candidates,omitempty"`
	// ParallelQueries / SerialQueries split queries by whether the
	// shard fan-out ran on more than one worker; FanoutWorkers is the
	// per-query histogram of workers actually used (bounded by
	// Options.QueryWorkers and the shard count).
	ParallelQueries uint64            `json:"parallel_queries"`
	SerialQueries   uint64            `json:"serial_queries"`
	FanoutWorkers   []HistogramBucket `json:"fanout_workers,omitempty"`
	// IntersectionSteps totals the posting-list merge steps (element
	// comparisons and gallop probes) taken by indexed queries — the
	// work the dictionary-encoded intersection actually performs, per
	// /stats scrape interval a direct read on index efficiency.
	IntersectionSteps uint64 `json:"intersection_steps"`
	// SemanticShortCircuits counts queries answered empty from a
	// compile-time emptiness proof: no posting list was probed and no
	// document evaluated. Such queries are counted here instead of in
	// the FindIndexed/FindScan (SelectIndexed/SelectScan) pairs.
	SemanticShortCircuits uint64 `json:"semantic_short_circuits"`
	// TermsPruned counts index terms skipped because the configured
	// schema proves them universal over conforming documents (a subset
	// of TermsSkipped); SchemaRejects counts writes refused by schema
	// enforcement.
	TermsPruned   uint64 `json:"terms_pruned"`
	SchemaRejects uint64 `json:"schema_rejects"`
	// Cancellations counts queries that ended early because their
	// context was cancelled (client gone) or its deadline expired.
	Cancellations uint64 `json:"cancellations"`
}

// DurabilityStats aggregates the WAL and snapshot counters of a
// durable store.
type DurabilityStats struct {
	// Fsync is the active policy ("always", "interval", "off").
	Fsync string `json:"fsync"`
	// WALAppends / WALBytes / WALSyncs count records appended, bytes
	// framed and fsyncs issued since open, summed over shards. With
	// group commit WALSyncs ≪ WALAppends under concurrent or bulk
	// writes.
	WALAppends uint64 `json:"wal_appends"`
	WALBytes   uint64 `json:"wal_bytes"`
	WALSyncs   uint64 `json:"wal_syncs"`
	// WALSegmentRecords is the record count across the active
	// segments — the replay debt a crash right now would incur.
	WALSegmentRecords uint64 `json:"wal_segment_records"`
	// Snapshots counts completed background and manual snapshots
	// (segment builds) since open; SnapshotErrors the failed ones.
	Snapshots      uint64 `json:"snapshots"`
	SnapshotErrors uint64 `json:"snapshot_errors"`
	// Segments / SegmentBytes / SegmentDocs describe the immutable
	// read tier: shards with a mapped segment file, bytes mapped (or
	// heap-resident under the no-mmap fallback) and live documents
	// served from segments. MemtableDocs counts documents in the
	// mutable tier above them. Compactions equals Snapshots: every
	// completed snapshot is one segment build (memtable + old segment
	// merged), so both read the same counter.
	Segments     int    `json:"segments"`
	SegmentBytes int64  `json:"segment_bytes"`
	SegmentDocs  int    `json:"segment_docs"`
	MemtableDocs int    `json:"memtable_docs"`
	Compactions  uint64 `json:"compactions"`
	// LastError is the first sticky WAL failure, if any; once set the
	// affected shard refuses writes.
	LastError string `json:"last_error,omitempty"`
	// Degraded reports whether any shard is currently in degraded
	// read-only mode (writes refused with ErrDegraded, reads serving,
	// background heal probe retrying); DegradedShards counts them.
	Degraded       bool `json:"degraded"`
	DegradedShards int  `json:"degraded_shards"`
	// WALRetries counts heal attempts on degraded shards; WALHeals
	// counts the ones that completed and re-enabled writes.
	WALRetries uint64 `json:"wal_retries"`
	WALHeals   uint64 `json:"wal_heals"`
	// Recovery reports what Open found and repaired.
	Recovery RecoveryStats `json:"recovery"`
}

// Stats is a point-in-time snapshot of the store.
type Stats struct {
	Docs    int          `json:"docs"`
	Shards  []ShardStats `json:"shards"`
	Terms   int          `json:"index_terms"`
	Entries int          `json:"index_postings"`
	Queries QueryStats   `json:"queries"`
	// Durability is nil on in-memory stores.
	Durability *DurabilityStats `json:"durability,omitempty"`
}

// Stats returns a snapshot of shard sizes, index cardinalities and
// query counters.
func (s *Store) Stats() Stats {
	st := Stats{Shards: make([]ShardStats, len(s.shards))}
	var segments, segDocs, memDocs int
	var segBytes int64
	for i, sh := range s.shards {
		sh.mu.RLock()
		ss := ShardStats{
			Docs:     sh.live(),
			Terms:    len(sh.ix.postings),
			Postings: sh.ix.entries,
		}
		if sh.seg != nil {
			segments++
			segBytes += sh.seg.sizeBytes()
			segDocs += sh.segLive
		}
		memDocs += sh.ix.live()
		sh.mu.RUnlock()
		st.Shards[i] = ss
		st.Docs += ss.Docs
		st.Terms += ss.Terms
		st.Entries += ss.Postings
	}
	st.Queries = QueryStats{
		FindIndexed:       s.findIndexed.Load(),
		FindScan:          s.findScan.Load(),
		SelectIndexed:     s.selectIndexed.Load(),
		SelectScan:        s.selectScan.Load(),
		CandidateDocs:     s.candidateDocs.Load(),
		ScannedDocs:       s.scannedDocs.Load(),
		PlannerScan:       s.plannerScan.Load(),
		TermsSkipped:      s.termsSkipped.Load(),
		FindCandidates:    s.findCandidates.Snapshot(),
		SelectCandidates:  s.selectCandidates.Snapshot(),
		ParallelQueries:   s.parallelQueries.Load(),
		SerialQueries:     s.serialQueries.Load(),
		FanoutWorkers:     s.fanoutWorkers.Snapshot(),
		IntersectionSteps: s.intersectionSteps.Load(),

		SemanticShortCircuits: s.semShortCircuits.Load(),
		TermsPruned:           s.termsPruned.Load(),
		SchemaRejects:         s.schemaRejects.Load(),
		Cancellations:         s.cancellations.Load(),
	}
	if s.dur != nil {
		st.Durability = s.dur.stats()
		st.Durability.Segments = segments
		st.Durability.SegmentBytes = segBytes
		st.Durability.SegmentDocs = segDocs
		st.Durability.MemtableDocs = memDocs
	}
	return st
}

// stats assembles the durable half of Stats.
func (d *durability) stats() *DurabilityStats {
	snapshots := d.snapshots.Load()
	ds := &DurabilityStats{
		Fsync:          d.policy.String(),
		Snapshots:      snapshots,
		SnapshotErrors: d.snapshotErrors.Load(),
		Compactions:    snapshots,
		WALRetries:     d.walRetries.Load(),
		WALHeals:       d.walHeals.Load(),
		Recovery:       d.recovery,
	}
	for _, w := range d.wals {
		appends, bytes, syncs, seg, err := w.counters()
		ds.WALAppends += appends
		ds.WALBytes += bytes
		ds.WALSyncs += syncs
		ds.WALSegmentRecords += seg
		if err != nil && ds.LastError == "" {
			ds.LastError = err.Error()
		}
		if w.degraded.Load() {
			ds.DegradedShards++
		}
	}
	ds.Degraded = ds.DegradedShards > 0
	return ds
}
