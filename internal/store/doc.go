// Package store implements the storage tier of the query service: a
// sharded, goroutine-safe in-memory collection of JSON documents with
// an inverted path index, queried through the compiled plans of
// internal/engine.
//
// # Architecture
//
// A Store holds N shards (N a power of two, chosen at construction).
// A document ID is hashed (FNV-1a) and the low bits pick the shard;
// each shard owns one pathIndex — whose dictionary is also the shard's
// document storage — guarded by one RWMutex. Writers (Put, Delete,
// bulk NDJSON ingest) lock only their document's shard, so unrelated
// writes proceed in parallel.
//
// Every query — Find and Select (the document-matching and
// node-selection modes), the FindScan/SelectScan reference scans and
// Explain — runs one pipeline, parameterised by mode: per shard, on a
// bounded worker pool (Options.QueryWorkers), collect the candidate
// (id, tree) pairs under the shard read lock, evaluate them outside
// the lock — trees are immutable, so evaluation never races with
// writers — and merge the per-shard answers into one deterministically
// sorted result. The shard is the only unit of parallelism. Find and
// Select take a context.Context, checkpointed between documents and
// inside the executor, and an optional trace recorder (nil on the
// untraced path).
//
// # The inverted path index
//
// Documents are dictionary-encoded per shard: each insert assigns the
// next dense uint32 ordinal, deletes tombstone the ordinal in O(1),
// and compaction renumbers the shard once tombstones reach the live
// count (and on every snapshot). The pathIndex maps structural terms
// to posting lists of sorted ordinals — intersected with a galloping/
// two-pointer merge, never map iteration — maintained incrementally on
// every insert and delete:
//
//   - a presence term for every root-to-node key/index path,
//   - a class term for every path plus the node's kind
//     (object/array/string/number — the paper's value model has no
//     booleans or nulls),
//   - a value term for every leaf path plus its exact string or number
//     value.
//
// Terms are 64-bit FNV hashes of the path (and class/value tag), so
// the index stores no path strings; hash collisions can only merge
// posting lists, which adds false candidates but never loses one.
//
// # Query planning: statistics → cost-based access plan → candidates
//
// A query arrives as an engine.Plan carrying compile-time index facts
// (Plan.FindFacts for document matching, Plan.SelectFacts for node
// selection — derived once from the plan's QIR lowering). The
// cost-based planner (planner.go) turns the facts into index terms,
// consults the Statistics interface (document count, per-term
// posting-list cardinalities, per-path class histograms) and chooses
// per query: index or scan (scan when even the best term matches most
// of the collection), which terms to intersect (near-useless terms are
// skipped), and in what order (ascending cardinality, so the smallest
// posting list drives the intersection and the likeliest-to-fail
// membership probes run first). Candidates are then evaluated by the
// shared QIR executor. Every fact is a necessary condition of
// matching, so a document outside the candidate set provably cannot
// match and the indexed result equals the full scan result
// node-for-node — the differential tests in this package enforce
// exactly that against both the forced scan and the retired front-end
// evaluators, including for plans that yield no facts (negation,
// disjunction, recursion, non-deterministic axes), which transparently
// fall back to scanning. Facts deeper than the index bound degrade to
// the presence of their in-bound prefix rather than disabling the
// index. Store.Explain reports the chosen plan with estimated versus
// actual cardinalities; the estimate provably bounds the candidate
// count.
//
// # Durability: write-ahead log and segment recovery
//
// New builds an in-memory store; Open adds durability under
// Options.DataDir. Every put and delete is framed (length-prefixed,
// CRC-protected) and appended to its shard's log while the shard lock
// is held — so log order equals apply order — and acknowledged only
// once the configured FsyncPolicy holds: always (group-commit fsync
// per acknowledgement), interval (background timer), or off (OS
// write-back; Close still flushes and syncs). A snapshot rotates a
// shard's WAL and builds an immutable, mmap'd segment file with
// write-temp-then-rename atomicity; recovery maps the newest segment
// that validates end-to-end, replays the WAL generations after it
// into the memtable and truncates torn tails. A directory holding the
// retired snap-*.snap format is refused. Stats exposes the WAL,
// snapshot and recovery counters; crash-recovery tests in this
// package pin a reopened store node-for-node to an in-memory
// reference driven through the same mutations.
//
// Package cmd/jsonstored serves a Store over HTTP; see
// examples/storequery for a walkthrough and docs/ARCHITECTURE.md for
// the whole pipeline.
package store
