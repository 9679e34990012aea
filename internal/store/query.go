package store

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"jsonlogic/internal/engine"
	"jsonlogic/internal/jsontree"
	"jsonlogic/internal/trace"
)

// Selection is the node-selection result for one document.
type Selection struct {
	ID string
	// Tree is the snapshot the node IDs refer to. Callers resolving
	// Nodes must use it rather than re-fetching by ID — a concurrent
	// replacement of the document would make the IDs meaningless.
	Tree  *jsontree.Tree
	Nodes []jsontree.NodeID
}

// batchCancelDocs is how often (in documents) the per-shard evaluation
// loop polls ctx between documents; must be a power of two. Within a
// single document the executor's own checkpoints bound the latency,
// so this poll only matters for shards of tiny documents.
const batchCancelDocs = 64

// docPair is a snapshot of one stored document.
type docPair struct {
	id   string
	tree *jsontree.Tree
}

// queryMode selects what the query pipeline computes.
type queryMode uint8

const (
	// modeFind evaluates the plan's boolean semantics (engine.Validate)
	// per document, answering sorted IDs.
	modeFind queryMode = 0
	// modeSelect evaluates the node-selection semantics
	// (engine.EvalAppend), answering Selections sorted by ID.
	modeSelect queryMode = 1 << iota
	// modeScan (combined with either) bypasses the semantic
	// short-circuit, the planner and the index: the reference full scan
	// the differential tests compare against.
	modeScan
)

// answer is one query's merged result: ids in find mode, sels in
// select mode.
type answer struct {
	ids  []string
	sels []Selection
}

// execInfo aggregates one execution's counter inputs — parallelism,
// intersection work, candidate count — returned up to query, which
// alone bumps the store's counters. Explain runs the identical
// pipeline and simply discards it, so explaining a query never
// disturbs the statistics.
type execInfo struct {
	workers    int
	steps      uint64
	candidates int
}

// collectCandidates appends the shard's candidates for one query to
// dst under the shard's read lock: when indexed, the union of the
// memtable's posting intersection and the segment's (tombstone-
// filtered), the whole shard otherwise. Trees are immutable, so
// evaluation happens after the lock is released; each query sees a
// consistent per-shard snapshot. steps reports both tiers' merge
// work. The error is a segment resolve/decode failure — impossible
// while the mapping is intact, surfaced rather than swallowed. An
// armed trace gets one "probe" span per indexed shard (posting-list
// lengths, merge steps, gallop switches per tier, surviving
// candidates); tr is nil on the untraced path.
func (sh *shard) collectCandidates(terms []uint64, indexed bool, dst []docPair, tr *trace.Trace, shardIdx int) (_ []docPair, steps int, err error) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if !indexed {
		err := sh.each(func(id string, t *jsontree.Tree) {
			dst = append(dst, docPair{id: id, tree: t})
		})
		return dst, 0, err
	}
	sp := trace.None
	if tr != nil {
		sp = tr.Start(tr.Root(), "probe")
		tr.Attr(sp, "shard", int64(shardIdx))
		tr.AttrStr(sp, "lists", postingLengths(sh.ix, terms))
	}
	scr := acquireProbeScratch()
	defer releaseProbeScratch(scr)
	before := len(dst)
	ords, steps, gallops := sh.ix.probe(terms, scr)
	for _, ord := range ords {
		// The probe result may carry tombstoned ordinals; the dictionary
		// filters them here, while the lock still pins it.
		if id := sh.ix.ids[ord]; id != "" {
			dst = append(dst, docPair{id: id, tree: sh.ix.trees[ord]})
		}
	}
	// Segment tier second: its probe reuses the scratch's ping-pong
	// buffers, which is safe exactly because the memtable result was
	// just consumed into dst. The tiers are disjoint, so appending
	// cannot duplicate an ID.
	segSteps, segGallops := 0, 0
	if sh.seg != nil {
		var segOrds []ordinal
		segOrds, segSteps, segGallops, err = sh.seg.probe(terms, scr, sh.segDead)
		if err == nil {
			for _, ord := range segOrds {
				var d *segDoc
				if d, err = sh.seg.resolve(ord); err != nil {
					break
				}
				dst = append(dst, docPair{id: d.id, tree: d.tree})
			}
		}
		steps += segSteps
	}
	if sp != trace.None {
		tr.Attr(sp, "steps", int64(steps))
		tr.Attr(sp, "gallops", int64(gallops))
		tr.Attr(sp, "seg_steps", int64(segSteps))
		tr.Attr(sp, "seg_gallops", int64(segGallops))
		tr.Attr(sp, "candidates", int64(len(dst)-before))
		tr.End(sp)
	}
	return dst, steps, err
}

// postingLengths renders the probed terms' posting-list lengths
// ("12,4096"), in term order — the trace's record of what the
// intersection was up against on this shard.
func postingLengths(ix *pathIndex, terms []uint64) string {
	var b []byte
	for i, term := range terms {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(len(ix.postings[term])), 10)
	}
	return string(b)
}

// fanOut runs task(0 … shards-1) over at most Options.QueryWorkers
// goroutines (work-stealing by atomic counter) and returns how many
// workers ran plus the first task error. With one worker — or one
// shard — the tasks run inline on the calling goroutine: no goroutine
// is spawned for a query that cannot parallelize. ctx is polled
// before every shard task, so a cancelled query stops picking up
// shards; in-flight tasks notice via their own checkpoints.
func (s *Store) fanOut(ctx context.Context, task func(shardIdx int) error) (int, error) {
	n := len(s.shards)
	workers := s.opts.QueryWorkers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return 1, err
			}
			if err := task(i); err != nil {
				return 1, err
			}
		}
		return 1, nil
	}
	var (
		next     atomic.Int64
		firstErr atomic.Pointer[error]
		wg       sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					keepFirst(&firstErr, err)
					return
				}
				if err := task(i); err != nil {
					keepFirst(&firstErr, err)
				}
			}
		}()
	}
	wg.Wait()
	if ep := firstErr.Load(); ep != nil {
		return workers, *ep
	}
	return workers, nil
}

// keepFirst stores err in first unless an earlier error is there. Only
// its parameter escapes, so a shard task that succeeds moves nothing
// to the heap.
func keepFirst(first *atomic.Pointer[error], err error) {
	first.CompareAndSwap(nil, &err)
}

// noteFanout records one query's parallelism and intersection work.
func (s *Store) noteFanout(workers int, steps uint64) {
	if workers > 1 {
		s.parallelQueries.Add(1)
	} else {
		s.serialQueries.Add(1)
	}
	s.fanoutWorkers.Observe(workers)
	if steps > 0 {
		s.intersectionSteps.Add(steps)
	}
}

// annotatePlanSpan records the planner's verdict on the trace's plan
// span: access path, justification, and the terms kept/skipped with
// their cardinalities.
func annotatePlanSpan(tr *trace.Trace, sp trace.SpanID, plan *QueryPlan) {
	if tr == nil {
		return
	}
	tr.AttrStr(sp, "access", plan.Access.String())
	tr.AttrStr(sp, "reason", plan.Reason)
	tr.Attr(sp, "doc_count", int64(plan.DocCount))
	kept := 0
	for _, t := range plan.Terms {
		if !t.Skipped {
			kept++
		}
	}
	tr.Attr(sp, "terms_kept", int64(kept))
	tr.Attr(sp, "terms_skipped", int64(plan.TermsSkipped()))
	tr.Attr(sp, "est_candidates", int64(plan.EstCandidates))
	if len(plan.Terms) > 0 {
		tr.AttrStr(sp, "terms", renderTerms(plan.Terms))
	}
}

// renderTerms compacts the planner's per-term decisions into one
// attribute value: "fact=cardinality" per term, "!" marking skipped
// terms, comma-separated in planner (ascending-cardinality) order.
func renderTerms(terms []TermPlan) string {
	var b []byte
	for i, t := range terms {
		if i > 0 {
			b = append(b, ',')
		}
		if t.Skipped {
			b = append(b, '!')
		}
		b = append(b, t.Fact...)
		b = append(b, '=')
		b = strconv.AppendInt(b, int64(t.Cardinality), 10)
	}
	return string(b)
}

// semanticEmpty reports whether the plan short-circuits to an empty
// answer from a compile-time proof: an unsatisfiable query always
// does; a schema-unsatisfiable one only on a store that enforces the
// schema (otherwise nonconforming resident documents could match).
func (s *Store) semanticEmpty(p *engine.Plan) (string, bool) {
	if p.Unsatisfiable() {
		return "unsat", true
	}
	if p.SchemaUnsatisfiable() && s.opts.Schema != nil {
		return "schema_unsat", true
	}
	return "", false
}

// semanticPlan records the short-circuit on the trace (a "semantic"
// span carrying the verdict) and returns its query plan: access path
// "semantic", zero candidates, nothing probed.
func (s *Store) semanticPlan(verdict string, tr *trace.Trace) QueryPlan {
	sp := tr.Start(tr.Root(), "semantic")
	tr.AttrStr(sp, "verdict", verdict)
	tr.End(sp)
	return QueryPlan{
		Access:   AccessSemantic,
		Reason:   "semantic: provably empty (" + verdict + "); no documents probed or evaluated",
		DocCount: s.DocCount(),
	}
}

// prunedFor returns the plan's schema-pruned fact set when this store
// enforces the schema that proved it. A store without the schema must
// ignore the marks: its documents never passed conformance validation,
// so "universal over conforming documents" promises nothing here.
func (s *Store) prunedFor(p *engine.Plan) map[string]bool {
	if s.opts.Schema == nil {
		return nil
	}
	return p.SchemaPruned()
}

// Find returns the IDs of all documents matching the plan's boolean
// semantics (engine.Validate), sorted. The cost-based planner decides
// per query between posting-list intersection and a full scan; results
// are identical either way — the plan's facts are necessary conditions
// of matching. Probing and evaluation fan out across shards on the
// bounded worker pool; the per-shard matches merge into one sorted ID
// list, so the result is deterministic whatever the interleaving. The
// returned indexed flag reports which access path answered the query.
//
// The pipeline's spans are recorded on tr; a nil tr is the production
// fast path, where the recorder calls reduce to nil checks. Evaluation
// checkpoints ctx cooperatively and the first ctx error aborts the
// fan-out, returning ctx.Err() with whatever trace spans were recorded
// so far; under context.Background the checkpoints are never armed.
func (s *Store) Find(ctx context.Context, p *engine.Plan, tr *trace.Trace) (ids []string, indexed bool, err error) {
	res, indexed, err := s.query(ctx, p, modeFind, tr)
	return res.ids, indexed, err
}

// Select runs the plan's node-selection semantics (engine.EvalAppend)
// over the collection and returns, per document with at least one
// selected node, the selected node IDs in evaluation order. Results
// are sorted by document ID; tracing, cancellation, fan-out and merge
// are as for Find. The planner consults the plan's select facts, which
// exist only for root-anchored selection (JSONPath); all other plans
// scan. The returned indexed flag reports the chosen access path.
func (s *Store) Select(ctx context.Context, p *engine.Plan, tr *trace.Trace) (sels []Selection, indexed bool, err error) {
	res, indexed, err := s.query(ctx, p, modeSelect, tr)
	return res.sels, indexed, err
}

// FindScan is Find with the planner and index disabled: the reference
// full scan the differential tests compare against.
func (s *Store) FindScan(p *engine.Plan) ([]string, error) {
	res, _, err := s.query(context.TODO(), p, modeFind|modeScan, nil)
	return res.ids, err
}

// SelectScan is Select with the planner and index disabled.
func (s *Store) SelectScan(p *engine.Plan) ([]Selection, error) {
	res, _, err := s.query(context.TODO(), p, modeSelect|modeScan, nil)
	return res.sels, err
}

// query runs one query and records it in the store's counters.
func (s *Store) query(ctx context.Context, p *engine.Plan, mode queryMode, tr *trace.Trace) (answer, bool, error) {
	res, plan, info, err := s.run(ctx, p, mode, tr)
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		s.cancellations.Add(1)
	}
	if plan.Access == AccessSemantic {
		// A compile-time proof answered the query: nothing was probed,
		// scanned or evaluated, so none of the execution counters apply.
		s.semShortCircuits.Add(1)
		return res, false, err
	}
	s.notePlan(&plan)
	sel, indexed := mode&modeSelect != 0, plan.Access == AccessIndex
	switch {
	case sel && indexed:
		s.selectIndexed.Add(1)
	case sel:
		s.selectScan.Add(1)
	case indexed:
		s.findIndexed.Add(1)
	default:
		s.findScan.Add(1)
	}
	s.noteFanout(info.workers, info.steps)
	s.noteCandidates(sel, indexed, info.candidates)
	return res, indexed, err
}

// run plans the query — semantic short-circuit, then the cost-based
// planner over the mode's facts, both skipped under modeScan — and
// executes it, recording spans on tr (which may be nil). It returns
// the plan and counter inputs untouched: query bumps the counters,
// Explain runs this same code and does not.
func (s *Store) run(ctx context.Context, p *engine.Plan, mode queryMode, tr *trace.Trace) (answer, QueryPlan, execInfo, error) {
	plan := QueryPlan{Access: AccessScan}
	if mode&modeScan == 0 {
		if verdict, ok := s.semanticEmpty(p); ok {
			return answer{}, s.semanticPlan(verdict, tr), execInfo{}, nil
		}
		facts := p.FindFacts()
		if mode&modeSelect != 0 {
			facts = p.SelectFacts()
		}
		sp := tr.Start(tr.Root(), "plan")
		plan = s.planFacts(facts, s.prunedFor(p))
		annotatePlanSpan(tr, sp, &plan)
		tr.End(sp)
	}
	res, info, err := s.execute(ctx, p, mode, plan.probeTerms, plan.Access == AccessIndex, tr)
	return res, plan, info, err
}

// execute is the query pipeline: per shard, on the fan-out worker
// pool, collect the candidates (the posting-list probe when indexed,
// the whole shard otherwise) and evaluate each in the mode's
// semantics; then merge the per-shard answers into one list sorted by
// document ID. Select evaluates through a reused node buffer, copying
// only the per-document selections that are actually returned.
func (s *Store) execute(ctx context.Context, p *engine.Plan, mode queryMode, terms []uint64, indexed bool, tr *trace.Trace) (answer, execInfo, error) {
	sel := mode&modeSelect != 0
	perShard := make([]answer, len(s.shards))
	var candidates, steps atomic.Int64
	workers, err := s.fanOut(ctx, func(i int) error {
		pairs, st, err := s.shards[i].collectCandidates(terms, indexed, nil, tr, i)
		if err != nil {
			return err
		}
		candidates.Add(int64(len(pairs)))
		steps.Add(int64(st))
		sp := trace.None
		if tr != nil {
			sp = tr.Start(tr.Root(), "eval")
			tr.Attr(sp, "shard", int64(i))
		}
		out := &perShard[i]
		var buf []jsontree.NodeID
		for di, pair := range pairs {
			if di&(batchCancelDocs-1) == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			if !sel {
				ok, err := s.eng.Validate(ctx, p, pair.tree)
				if err != nil {
					return err
				}
				if ok {
					out.ids = append(out.ids, pair.id)
				}
				continue
			}
			if buf, err = s.eng.EvalAppend(ctx, p, pair.tree, buf[:0]); err != nil {
				return err
			}
			if len(buf) > 0 {
				nodes := make([]jsontree.NodeID, len(buf))
				copy(nodes, buf)
				out.sels = append(out.sels, Selection{ID: pair.id, Tree: pair.tree, Nodes: nodes})
			}
		}
		if sp != trace.None {
			tr.Attr(sp, "docs", int64(len(pairs)))
			tr.Attr(sp, "matches", int64(len(out.ids)+len(out.sels)))
			tr.End(sp)
		}
		return nil
	})
	info := execInfo{workers: workers, steps: uint64(steps.Load()), candidates: int(candidates.Load())}
	if err != nil {
		return answer{}, info, err
	}
	msp := tr.Start(tr.Root(), "merge")
	nIDs, nSels := 0, 0
	for _, a := range perShard {
		nIDs += len(a.ids)
		nSels += len(a.sels)
	}
	// Non-nil even when empty: the HTTP layer renders an empty answer
	// as [], not null.
	res := answer{ids: make([]string, 0, nIDs), sels: make([]Selection, 0, nSels)}
	for _, a := range perShard {
		res.ids = append(res.ids, a.ids...)
		res.sels = append(res.sels, a.sels...)
	}
	slices.Sort(res.ids)
	slices.SortFunc(res.sels, func(a, b Selection) int { return strings.Compare(a.ID, b.ID) })
	tr.Attr(msp, "results", int64(nIDs+nSels))
	tr.End(msp)
	return res, info, nil
}

// notePlan records the planner's verdict in the query counters.
func (s *Store) notePlan(plan *QueryPlan) {
	if plan.Access == AccessScan && len(plan.Terms) > 0 {
		s.plannerScan.Add(1)
	}
	if skipped := plan.TermsSkipped(); skipped > 0 {
		s.termsSkipped.Add(uint64(skipped))
	}
	if plan.prunedTerms > 0 {
		s.termsPruned.Add(uint64(plan.prunedTerms))
	}
}

// noteCandidates records one query's candidate-set size: totals per
// access path, plus a per-query histogram for indexed queries (a
// scan's candidate count is just the collection size).
func (s *Store) noteCandidates(sel, indexed bool, n int) {
	if !indexed {
		s.scannedDocs.Add(uint64(n))
		return
	}
	s.candidateDocs.Add(uint64(n))
	if sel {
		s.selectCandidates.Observe(n)
	} else {
		s.findCandidates.Observe(n)
	}
}

// Explanation is the full story of one query against this store: the
// compile-time plan (lowered logical tree, physical operator program,
// index facts) and the run-time access decision with estimated versus
// actual cardinalities. Explain executes the query, so the actual
// numbers are measured, not modelled.
type Explanation struct {
	Plan engine.PlanExplain `json:"plan"`
	// Mode is "find" or "select".
	Mode string `json:"mode"`
	// Access is the chosen access path ("index" or "scan"), Reason the
	// planner's justification.
	Access string `json:"access"`
	Reason string `json:"reason"`
	// DocCount is the collection size at planning time.
	DocCount int `json:"doc_count"`
	// Terms are the index-supported facts with their statistics and
	// class histograms, ordered by ascending cardinality.
	Terms []TermPlan `json:"terms,omitempty"`
	// EstCandidates is the planner's upper bound on the candidate
	// count; ActualCandidates is what the access path produced. With no
	// concurrent writes, EstCandidates ≥ ActualCandidates always.
	EstCandidates    int `json:"est_candidates"`
	ActualCandidates int `json:"actual_candidates"`
	// ActualResults counts matching documents (find) or documents with
	// at least one selected node (select).
	ActualResults int `json:"actual_results"`
	// Trace is the span tree recorded while executing this explanation
	// — the same recorder and pipeline the slow-query log uses, so the
	// stage timings are measured on the production path, not modelled
	// by a parallel one.
	Trace []*trace.SpanOut `json:"trace"`
}

// Explain plans and executes the query in the given mode ("find" or
// "select") under an always-armed trace recorder, reporting the
// logical and physical trees, estimated and actual cardinalities, and
// the recorded per-stage span tree. It runs the real pipeline (run —
// exactly what Find and Select execute) but does not disturb the
// store's query counters.
func (s *Store) Explain(ctx context.Context, p *engine.Plan, mode string) (Explanation, error) {
	qm := modeFind
	switch mode {
	case "", "find":
		mode = "find"
	case "select":
		qm = modeSelect
	default:
		return Explanation{}, fmt.Errorf("store: explain: unknown mode %q", mode)
	}
	tr := trace.NewTrace("explain")
	tr.SetQuery(p.Language().String(), p.Source(), mode)
	res, plan, info, err := s.run(ctx, p, qm, tr)
	if err != nil {
		return Explanation{}, err
	}
	for i := range plan.Terms {
		plan.Terms[i].Classes = s.ClassHistogram(plan.Terms[i].steps).Map()
	}
	return Explanation{
		Plan:             p.Explain(),
		Mode:             mode,
		Access:           plan.Access.String(),
		Reason:           plan.Reason,
		DocCount:         plan.DocCount,
		Terms:            plan.Terms,
		EstCandidates:    plan.EstCandidates,
		ActualCandidates: info.candidates,
		ActualResults:    len(res.ids) + len(res.sels),
		Trace:            tr.Spans(),
	}, nil
}
