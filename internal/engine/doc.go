// Package engine is the production-oriented evaluation layer over the
// formal core: it compiles query sources once into immutable, shareable
// plans, caches them, and evaluates one plan over many documents
// concurrently.
//
// # Architecture
//
// Three layers separate what is immutable from what is per-evaluation:
//
//   - Plan: a compiled query — language tag, source text, the parsed
//     front-end AST, and the query lowered into the unified algebra of
//     internal/qir with its compiled physical operator program. All
//     four languages evaluate through that one program; the front-end
//     ASTs are retained as differential-test oracles
//     (Plan.EvalReference, Plan.ValidateReference). Plans are deeply
//     immutable after Compile: nothing is mutated by evaluation and the
//     embedded relang.Regex values are safe for concurrent use, so one
//     Plan may be shared by any number of goroutines.
//
//   - Plan cache: a bounded LRU keyed by (language, source text) with
//     hit/miss/eviction statistics, so front ends that receive the same
//     query repeatedly (the "heavy traffic" scenario of the roadmap) pay
//     parse + translate + normalize once, not per request.
//
//   - Evaluation: Engine.Eval and Engine.Validate run the plan's QIR
//     program, which draws its per-(plan, tree) mutable state —
//     closure and definition memo tables, regex and uniqueness memos —
//     from a pool on the program, reset for every call. That state is
//     owned by one call at a time and never shared, which makes the
//     public API goroutine-safe without locks on the hot path.
//
// This mirrors the split the paper itself makes: the formula (compiled
// once; Propositions 1 and 3 measure evaluation per formula size |φ|)
// versus the per-document structures (node sets, equality classes, edge
// marks) that evaluation builds in O(|J|·|φ|).
//
// # Entry points
//
// Evaluation has one entry point per mode — Eval, EvalAppend (Eval
// into a reused buffer) and Validate — each taking a context.Context.
// The executor arms its cooperative cancellation checkpoints only when
// ctx.Done() is non-nil, so context.Background runs the unchecked
// path, allocation-free on a plan-cache hit. The NDJSON path
// (EvalReader, ValidateReader) accepts an io.Reader holding one JSON
// document per line; lines are tokenized with internal/stream's
// tokenizer and materialized through jsontree.Builder — one pooled
// Builder per worker (Options.Workers), reset between documents — then
// evaluated in parallel. A malformed line fails that line only, not
// the batch.
//
// # Relation to the reference semantics
//
// The engine adds no semantics of its own: results are defined to be
// node-for-node identical to a fresh jnl.Evaluator / jsl.Evaluator run
// on the same tree, reachable per plan through EvalReference and
// ValidateReference. diff_test.go enforces that contract over
// thousands of randomized (tree, query) pairs per front end, and
// race_test.go pins the plan-sharing design under the race detector.
// Plan.Explain renders the lowered logical tree and the physical
// operator program; the store's Explain adds the run-time access plan.
package engine
