package store

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"jsonlogic/internal/engine"
	"jsonlogic/internal/gen"
	"jsonlogic/internal/jsontree"
)

// The store's differential harness: for ≥1000 random (collection,
// query) pairs per front end, the indexed Find/Select results must be
// identical — node for node — to the full-scan reference, including
// queries whose plans yield no index facts and force the scan
// fallback (negation, disjunction, recursion, non-deterministic
// axes). Collections are rotated so inserts, replacements and the
// incremental index are exercised across many shapes.

// storeDiffPairs is the number of (collection, query) pairs per front
// end.
const storeDiffPairs = 1050

// storeDiffDocs is the collection size; small documents keep the
// quadratic fallbacks cheap while covering all four node kinds.
const storeDiffDocs = 48

func storeDiffDocOptions() gen.DocOptions {
	return gen.DocOptions{Fanout: 3, Depth: 3, Keys: 12, ArrayBias: 40, ValueRange: 20}
}

// diffCollections deals a fresh random collection every perStore
// pairs, alternating shard counts and, every other rotation, a low
// MaxIndexDepth so the depth-bound fallback is also exercised.
type diffCollections struct {
	r        *rand.Rand
	eng      *engine.Engine
	perStore int
	count    int
	cur      *Store
	totals   QueryStats // aggregated over retired collections
}

func (d *diffCollections) retire() {
	if d.cur == nil {
		return
	}
	q := d.cur.Stats().Queries
	d.totals.FindIndexed += q.FindIndexed
	d.totals.FindScan += q.FindScan
	d.totals.SelectIndexed += q.SelectIndexed
	d.totals.SelectScan += q.SelectScan
	d.totals.CandidateDocs += q.CandidateDocs
	d.totals.ScannedDocs += q.ScannedDocs
}

func (d *diffCollections) next() *Store {
	if d.count%d.perStore == 0 {
		d.retire()
		opts := Options{Shards: []int{1, 4, 16}[d.count/d.perStore%3], Engine: d.eng}
		if (d.count/d.perStore)%2 == 1 {
			opts.MaxIndexDepth = 2
		}
		d.cur = New(opts)
		for i := 0; i < storeDiffDocs; i++ {
			d.cur.PutTree(fmt.Sprintf("doc%03d", i), jsontree.FromValue(gen.Document(d.r, storeDiffDocOptions())))
		}
		// Churn: replace a few documents and delete one, so the
		// incremental index maintenance is part of every collection.
		for i := 0; i < 4; i++ {
			d.cur.PutTree(fmt.Sprintf("doc%03d", d.r.Intn(storeDiffDocs)), jsontree.FromValue(gen.Document(d.r, storeDiffDocOptions())))
		}
		d.cur.Delete(fmt.Sprintf("doc%03d", d.r.Intn(storeDiffDocs)))
	}
	d.count++
	return d.cur
}

func sameIDs(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameSelections(a, b []Selection) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || len(a[i].Nodes) != len(b[i].Nodes) {
			return false
		}
		for j := range a[i].Nodes {
			if a[i].Nodes[j] != b[i].Nodes[j] {
				return false
			}
		}
	}
	return true
}

// allDocs snapshots every stored document, serially and outside the
// query pipeline — the reference evaluators' document source.
func allDocs(t *testing.T, s *Store) []docPair {
	t.Helper()
	var out []docPair
	for i, sh := range s.shards {
		var err error
		if out, _, err = sh.collectCandidates(nil, false, out, nil, i); err != nil {
			t.Fatalf("reference snapshot: %v", err)
		}
	}
	return out
}

// referenceFind computes Find's answer with the retired front-end
// evaluators (Plan.ValidateReference) over every stored document — the
// old-evaluator oracle the QIR executor must match node-for-node.
func referenceFind(t *testing.T, s *Store, p *engine.Plan, src string) []string {
	t.Helper()
	var ids []string
	for _, pair := range allDocs(t, s) {
		ok, err := p.ValidateReference(pair.tree)
		if err != nil {
			t.Fatalf("reference validate(%q): %v", src, err)
		}
		if ok {
			ids = append(ids, pair.id)
		}
	}
	sort.Strings(ids)
	return ids
}

// referenceSelect is referenceFind's node-selection counterpart, built
// on Plan.EvalReference.
func referenceSelect(t *testing.T, s *Store, p *engine.Plan, src string) []Selection {
	t.Helper()
	var out []Selection
	for _, pair := range allDocs(t, s) {
		nodes, err := p.EvalReference(pair.tree)
		if err != nil {
			t.Fatalf("reference eval(%q): %v", src, err)
		}
		if len(nodes) > 0 {
			out = append(out, Selection{ID: pair.id, Tree: pair.tree, Nodes: nodes})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// runStoreDifferential drives one front end through the harness: for
// every random (collection, query) pair the planner-driven Find/Select
// must agree with the forced full scan AND with the retired front-end
// evaluators (the old-vs-QIR oracle check), and Explain's estimated
// cardinality must bound the measured one.
func runStoreDifferential(t *testing.T, seed int64, lang engine.Language, source func(r *rand.Rand) string) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	eng := engine.New(engine.Options{PlanCacheSize: 64})
	cols := &diffCollections{r: r, eng: eng, perStore: 25}
	for i := 0; i < storeDiffPairs; i++ {
		s := cols.next()
		src := source(r)
		p, err := eng.Compile(lang, src)
		if err != nil {
			t.Fatalf("generator bug: %q does not compile: %v", src, err)
		}
		gotF, _, err := s.Find(context.Background(), p, nil)
		if err != nil {
			t.Fatalf("Find(%q): %v", src, err)
		}
		wantF, err := s.FindScan(p)
		if err != nil {
			t.Fatalf("FindScan(%q): %v", src, err)
		}
		if !sameIDs(gotF, wantF) {
			t.Fatalf("pair %d: indexed Find disagrees with scan on %q\nindexed: %v\nscan:    %v",
				i, src, gotF, wantF)
		}
		if oracleF := referenceFind(t, s, p, src); !sameIDs(gotF, oracleF) {
			t.Fatalf("pair %d: QIR Find disagrees with the old evaluator on %q\nqir:    %v\noracle: %v",
				i, src, gotF, oracleF)
		}
		gotS, _, err := s.Select(context.Background(), p, nil)
		if err != nil {
			t.Fatalf("Select(%q): %v", src, err)
		}
		wantS, err := s.SelectScan(p)
		if err != nil {
			t.Fatalf("SelectScan(%q): %v", src, err)
		}
		if !sameSelections(gotS, wantS) {
			t.Fatalf("pair %d: indexed Select disagrees with scan on %q\nindexed: %+v\nscan:    %+v",
				i, src, gotS, wantS)
		}
		if oracleS := referenceSelect(t, s, p, src); !sameSelections(gotS, oracleS) {
			t.Fatalf("pair %d: QIR Select disagrees with the old evaluator on %q\nqir:    %+v\noracle: %+v",
				i, src, gotS, oracleS)
		}
		// Every fifth pair, assert the Explain cardinality contract:
		// the estimate is an upper bound on what the access path
		// actually produced, and results never exceed candidates.
		if i%5 == 0 {
			for _, mode := range []string{"find", "select"} {
				ex, err := s.Explain(context.Background(), p, mode)
				if err != nil {
					t.Fatalf("Explain(%q, %s): %v", src, mode, err)
				}
				if ex.EstCandidates < ex.ActualCandidates {
					t.Fatalf("pair %d: Explain(%q, %s) estimate %d below actual %d",
						i, src, mode, ex.EstCandidates, ex.ActualCandidates)
				}
				if ex.ActualResults > ex.ActualCandidates {
					t.Fatalf("pair %d: Explain(%q, %s) results %d exceed candidates %d",
						i, src, mode, ex.ActualResults, ex.ActualCandidates)
				}
				if ex.Access == "scan" && ex.ActualCandidates != ex.DocCount {
					t.Fatalf("pair %d: Explain(%q, %s) scan candidates %d != doc count %d",
						i, src, mode, ex.ActualCandidates, ex.DocCount)
				}
			}
		}
	}
	cols.retire()
	q := cols.totals
	if q.FindIndexed == 0 {
		t.Error("no query used the index; the harness is not exercising the indexed path")
	}
	if q.FindIndexed+q.FindScan != 2*storeDiffPairs {
		t.Errorf("find counters lost calls: %+v", q)
	}
	if q.FindScan <= storeDiffPairs {
		// FindScan counts both the reference scans (one per pair) and
		// genuine fallbacks; equality would mean no fallback occurred.
		t.Error("no query fell back to scanning; the harness is not exercising the fallback")
	}
	t.Logf("%v: %d pairs, query counters %+v", lang, storeDiffPairs, q)
}

func TestStoreDifferentialMongo(t *testing.T) {
	runStoreDifferential(t, 606, engine.LangMongoFind, func(r *rand.Rand) string {
		return gen.RandomMongoSource(r, 2)
	})
}

func TestStoreDifferentialJSONPath(t *testing.T) {
	runStoreDifferential(t, 707, engine.LangJSONPath, func(r *rand.Rand) string {
		return gen.RandomJSONPathSource(r)
	})
}

func TestStoreDifferentialJNL(t *testing.T) {
	runStoreDifferential(t, 808, engine.LangJNL, func(r *rand.Rand) string {
		return gen.RandomJNLSource(r, 3)
	})
}

// TestStoreDifferentialJSL rides along beyond the required three front
// ends: recursive JSL expressions always fall back to scanning, plain
// ones may index.
func TestStoreDifferentialJSL(t *testing.T) {
	runStoreDifferential(t, 909, engine.LangJSL, func(r *rand.Rand) string {
		if r.Intn(4) == 0 {
			return gen.RandomRecursiveJSLSource(r, 2)
		}
		return gen.RandomJSLSource(r, 3)
	})
}
