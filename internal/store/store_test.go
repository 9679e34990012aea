package store

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"jsonlogic/internal/engine"
	"jsonlogic/internal/jsontree"
)

func mustFind(t *testing.T, s *Store, lang engine.Language, src string) []string {
	t.Helper()
	p, err := s.Engine().Compile(lang, src)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	ids, _, err := s.Find(context.Background(), p, nil)
	if err != nil {
		t.Fatalf("find %q: %v", src, err)
	}
	return ids
}

func TestPutGetDelete(t *testing.T) {
	s := New(Options{Shards: 4})
	if err := s.Put("a", `{"name":"sue","age":34}`); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", `not json`); err == nil {
		t.Fatal("expected parse error")
	}
	tr, ok := s.Get("a")
	if !ok || tr.String() != `{"age":34,"name":"sue"}` {
		t.Fatalf("get a = %v, %v", tr, ok)
	}
	if _, ok := s.Get("b"); ok {
		t.Fatal("b should not exist")
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
	first, err := s.Delete("a")
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Delete("a")
	if err != nil {
		t.Fatal(err)
	}
	if !first || second {
		t.Fatal("delete a should succeed exactly once")
	}
	if s.Len() != 0 {
		t.Fatalf("len after delete = %d", s.Len())
	}
}

func TestShardCountRounding(t *testing.T) {
	cases := []struct{ in, want int }{{0, 16}, {1, 1}, {3, 4}, {8, 8}, {9, 16}}
	for _, c := range cases {
		if got := New(Options{Shards: c.in}).NumShards(); got != c.want {
			t.Errorf("Shards:%d → %d shards, want %d", c.in, got, c.want)
		}
	}
}

// TestIndexMaintenance checks the incremental index against inserts,
// replacements and deletions: queries must reflect exactly the live
// documents, and the posting structures must drain to empty.
func TestIndexMaintenance(t *testing.T) {
	s := New(Options{Shards: 2})
	const q = `{"user.name":"sue"}`
	if err := s.Put("x", `{"user":{"name":"sue"}}`); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("y", `{"user":{"name":"bob"}}`); err != nil {
		t.Fatal(err)
	}
	if got := mustFind(t, s, engine.LangMongoFind, q); len(got) != 1 || got[0] != "x" {
		t.Fatalf("find = %v, want [x]", got)
	}
	// Replace x: the old value terms must be unwound.
	if err := s.Put("x", `{"user":{"name":"ann"}}`); err != nil {
		t.Fatal(err)
	}
	if got := mustFind(t, s, engine.LangMongoFind, q); len(got) != 0 {
		t.Fatalf("find after replace = %v, want []", got)
	}
	if got := mustFind(t, s, engine.LangMongoFind, `{"user.name":"ann"}`); len(got) != 1 || got[0] != "x" {
		t.Fatalf("find ann = %v, want [x]", got)
	}
	s.Delete("x")
	s.Delete("y")
	st := s.Stats()
	if st.Docs != 0 || st.Terms != 0 || st.Entries != 0 {
		t.Fatalf("index did not drain: %+v", st)
	}
}

// TestIndexedVsScanCounters checks that supported plans probe the index
// and unsupported plans (negation, recursion, deep paths) scan.
func TestIndexedVsScanCounters(t *testing.T) {
	s := New(Options{Shards: 2, MaxIndexDepth: 3})
	for i := 0; i < 8; i++ {
		if err := s.Put(fmt.Sprintf("d%d", i), fmt.Sprintf(`{"a":{"b":%d}}`, i)); err != nil {
			t.Fatal(err)
		}
	}
	mustFind(t, s, engine.LangMongoFind, `{"a.b":3}`) // indexed
	mustFind(t, s, engine.LangMongoFind, `{"a.b":{"$ne":3}}`)
	mustFind(t, s, engine.LangJSL, `def g = number || some(~".*", g) ; g`)
	// Deeper than MaxIndexDepth: the over-deep facts are dropped but the
	// in-bound prefix facts still prune (to zero candidates here, since
	// no document has a node at a/b/c).
	if got := mustFind(t, s, engine.LangMongoFind, `{"a.b.c.d.e":1}`); len(got) != 0 {
		t.Fatalf("deep find = %v, want []", got)
	}
	q := s.Stats().Queries
	if q.FindIndexed != 2 || q.FindScan != 2 {
		t.Fatalf("counters = %+v, want 2 indexed / 2 scans", q)
	}
	if q.CandidateDocs != 1 || q.ScannedDocs != 16 {
		t.Fatalf("doc counters = %+v, want 1 candidate / 16 scanned", q)
	}
	// A JSONPath plan whose single prefix fact is over-deep degrades to
	// its in-bound prefix presence: still indexed, pruning to zero
	// candidates here (no document has an a/b/c path).
	deep, err := s.Engine().Compile(engine.LangJSONPath, `$.a.b.c.d.e`)
	if err != nil {
		t.Fatal(err)
	}
	if ids, indexed, err := s.Find(context.Background(), deep, nil); err != nil || !indexed || len(ids) != 0 {
		t.Fatalf("deep JSONPath: ids=%v indexed=%v err=%v, want indexed and empty", ids, indexed, err)
	}
	if sels, indexed, err := s.Select(context.Background(), deep, nil); err != nil || !indexed || len(sels) != 0 {
		t.Fatalf("deep select: sels=%v indexed=%v err=%v, want indexed and empty", sels, indexed, err)
	}
	// An in-bound prefix every document carries is index-supported but
	// unselective: the cost-based planner must choose the scan and say
	// so in the counters.
	shallow, err := s.Engine().Compile(engine.LangJSONPath, `$.a.b`)
	if err != nil {
		t.Fatal(err)
	}
	before := s.Stats().Queries.PlannerScan
	if _, indexed, err := s.Find(context.Background(), shallow, nil); err != nil || indexed {
		t.Fatalf("unselective in-bound plan must scan (indexed=%v err=%v)", indexed, err)
	}
	if after := s.Stats().Queries.PlannerScan; after != before+1 {
		t.Fatalf("PlannerScan = %d, want %d", after, before+1)
	}
}

// TestSelectJSONPathIndexed checks node selection through the index on
// an anchored JSONPath plan.
func TestSelectJSONPathIndexed(t *testing.T) {
	s := New(Options{})
	if err := s.Put("a", `{"store":{"book":["x","y"]}}`); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", `{"store":{"cd":["z"]}}`); err != nil {
		t.Fatal(err)
	}
	p, err := s.Engine().Compile(engine.LangJSONPath, `$.store.book[*]`)
	if err != nil {
		t.Fatal(err)
	}
	sel, indexed, err := s.Select(context.Background(), p, nil)
	if err != nil || !indexed {
		t.Fatalf("select: indexed=%v err=%v", indexed, err)
	}
	if len(sel) != 1 || sel[0].ID != "a" || len(sel[0].Nodes) != 2 {
		t.Fatalf("select = %+v", sel)
	}
	if q := s.Stats().Queries; q.SelectIndexed != 1 || q.CandidateDocs != 1 {
		t.Fatalf("select did not use the index: %+v", q)
	}
}

func TestBulkNDJSON(t *testing.T) {
	s := New(Options{})
	input := `{"k":1}

{"k":2}
{oops
{"k":3}
`
	res, err := s.BulkNDJSON(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 3 {
		t.Fatalf("ingested %d docs, want 3: %+v", len(res.IDs), res)
	}
	if len(res.Errors) != 1 || res.Errors[0].Line != 4 {
		t.Fatalf("errors = %+v, want one at line 4", res.Errors)
	}
	if s.Len() != 3 {
		t.Fatalf("len = %d", s.Len())
	}
	if got := mustFind(t, s, engine.LangMongoFind, `{"k":2}`); len(got) != 1 || got[0] != res.IDs[1] {
		t.Fatalf("find k=2 = %v, want [%s]", got, res.IDs[1])
	}
}

// errReader yields its payload and then a non-EOF error, simulating a
// connection dropped mid-bulk.
type errReader struct {
	data string
	err  error
	off  int
}

func (r *errReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, r.err
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

func TestBulkNDJSONReaderError(t *testing.T) {
	s := New(Options{})
	boom := errors.New("boom")
	res, err := s.BulkNDJSON(&errReader{data: "{\"k\":1}\n{\"k\":2}\n", err: boom})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// Both complete lines were ingested before the failure.
	if len(res.IDs) != 2 || s.Len() != 2 {
		t.Fatalf("ingested %d/%d docs before failure", len(res.IDs), s.Len())
	}
}

// TestFactTermDepthBound pins the depth degradation: an over-deep fact
// becomes the presence term of its in-bound prefix.
func TestFactTermDepthBound(t *testing.T) {
	steps := []jsontree.Step{jsontree.Key("a"), jsontree.Key("b"), jsontree.Key("c")}
	deep := jsontree.PathFact{Steps: steps}
	term, ok := factTerm(deep, 2)
	if !ok || term != presenceTerm(pathHash(steps[:2])) {
		t.Fatal("over-deep fact must degrade to its prefix presence term")
	}
	if term, ok := factTerm(deep, 3); !ok || term != presenceTerm(pathHash(steps)) {
		t.Fatal("fact at bound must keep its full term")
	}
	if _, ok := factTerm(jsontree.PathFact{}, 8); ok {
		t.Fatal("bare root presence fact must be rejected")
	}
}

// TestDeepFactPartialPruning checks that one over-deep fact does not
// disable the index: the remaining in-bound facts still prune, and
// results match the scan.
func TestDeepFactPartialPruning(t *testing.T) {
	s := New(Options{Shards: 2, MaxIndexDepth: 2})
	for i := 0; i < 16; i++ {
		tenant := fmt.Sprintf("t%d", i%4)
		if err := s.Put(fmt.Sprintf("d%d", i),
			fmt.Sprintf(`{"tenant":%q,"a":{"b":{"c":{"d":%d}}}}`, tenant, i)); err != nil {
			t.Fatal(err)
		}
	}
	// tenant is in-bound and selective; a.b.c.d is deeper than the
	// bound, so only its prefix facts up to depth 2 contribute.
	p, err := s.Engine().Compile(engine.LangMongoFind, `{"tenant":"t1","a.b.c.d":{"$gte":0}}`)
	if err != nil {
		t.Fatal(err)
	}
	ids, indexed, err := s.Find(context.Background(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !indexed {
		t.Fatal("in-bound facts must keep the plan indexed")
	}
	want, err := s.FindScan(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 4 || !sameIDs(ids, want) {
		t.Fatalf("indexed = %v, scan = %v", ids, want)
	}
	// The value term for tenant pruned to exactly the 4 matching docs.
	if c := s.Stats().Queries.CandidateDocs; c != 4 {
		t.Fatalf("evaluated %d candidates, want 4", c)
	}
}

// TestFewerShardsThanWorkers pins the configuration with fewer shards
// than query workers (a 1-shard store on a many-core host): the shard
// fan-out is the only parallelism scheme, so the query runs on one
// worker and must return exactly what a 1-worker store and the
// reference scan return, with every query accounted in the fan-out
// counters.
func TestFewerShardsThanWorkers(t *testing.T) {
	wide := New(Options{Shards: 1, QueryWorkers: 8})
	ref := New(Options{Shards: 1, QueryWorkers: 1})
	for i := 0; i < 40; i++ {
		doc := fmt.Sprintf(`{"g":"g%d","n":%d}`, i%4, i)
		for _, s := range []*Store{wide, ref} {
			if err := s.Put(fmt.Sprintf("d%02d", i), doc); err != nil {
				t.Fatal(err)
			}
		}
	}
	queries := 0
	for _, src := range []string{`{"g":"g1","n":{"$lte":20}}`, `{"n":{"$gte":0}}`} {
		p, err := wide.Engine().Compile(engine.LangMongoFind, src)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := wide.Find(context.Background(), p, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := ref.Find(context.Background(), p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(got, want) {
			t.Fatalf("wide Find(%s) = %v, 1-worker store = %v", src, got, want)
		}
		scan, err := wide.FindScan(p)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(got, scan) {
			t.Fatalf("wide Find(%s) = %v, scan = %v", src, got, scan)
		}
		queries += 2 // Find + FindScan on wide
	}
	q := wide.Stats().Queries
	if q.ParallelQueries+q.SerialQueries != uint64(queries) {
		t.Fatalf("fan-out counters cover %d queries, ran %d: %+v",
			q.ParallelQueries+q.SerialQueries, queries, q)
	}
	if q.SerialQueries != uint64(queries) {
		t.Fatalf("%d of %d queries fanned out over one shard", q.ParallelQueries, queries)
	}
}

// TestBulkIDsNeverClobber pins that auto-assigned bulk IDs skip IDs
// already taken by user-chosen names.
func TestBulkIDsNeverClobber(t *testing.T) {
	s := New(Options{})
	if err := s.Put("d00000000", `{"precious":1}`); err != nil {
		t.Fatal(err)
	}
	res, err := s.BulkNDJSON(strings.NewReader("{\"bulk\":1}\n{\"bulk\":2}\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 2 || res.IDs[0] != "d00000001" || res.IDs[1] != "d00000002" {
		t.Fatalf("bulk ids = %v, want the taken id skipped", res.IDs)
	}
	tr, ok := s.Get("d00000000")
	if !ok || tr.ChildByKey(tr.Root(), "precious") == jsontree.InvalidNode {
		t.Fatal("bulk ingest clobbered a user-stored document")
	}
	if s.Len() != 3 {
		t.Fatalf("len = %d, want 3", s.Len())
	}
}
