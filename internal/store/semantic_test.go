package store

import (
	"context"
	"errors"
	"strings"
	"testing"

	"jsonlogic/internal/engine"
	"jsonlogic/internal/schema"
	"jsonlogic/internal/trace"
)

// semanticEngine returns an engine with the semantic pass on at the
// daemon's default budget.
func semanticEngine(t *testing.T, opts engine.Options) *engine.Engine {
	t.Helper()
	if opts.SemanticBudget == 0 {
		opts.SemanticBudget = 50000
	}
	return engine.New(opts)
}

// seedDocs fills the store with documents that carry the keys the
// short-circuit queries mention — if the short-circuit failed, the
// queries would at least probe these postings.
func seedDocs(t *testing.T, s *Store) {
	t.Helper()
	docs := map[string]string{
		"a": `{"k0": 1, "k1": "x"}`,
		"b": `{"k0": 7}`,
		"c": `{"k1": {"k0": 3}}`,
		"d": `["k0", 2]`,
	}
	for id, doc := range docs {
		if err := s.Put(id, doc); err != nil {
			t.Fatalf("put %s: %v", id, err)
		}
	}
}

// TestUnsatShortCircuitAllFrontEnds is the short-circuit regression
// table: one provably-empty query per front end answers empty with zero
// posting-list probes and zero evaluated documents, counted only in
// SemanticShortCircuits — never in the find/scan/candidate counters.
func TestUnsatShortCircuitAllFrontEnds(t *testing.T) {
	cases := []struct {
		lang engine.Language
		src  string
	}{
		{engine.LangJNL, `([/k0] && !([/k0]))`},
		{engine.LangJSL, `(string && number)`},
		{engine.LangMongoFind, `{"$and":[{"k0":{"$gt":5}},{"k0":{"$lt":3}}]}`},
		{engine.LangJSONPath, `$[?(@.k0 < 0)]`},
	}
	for _, tc := range cases {
		t.Run(tc.lang.String(), func(t *testing.T) {
			s := New(Options{Shards: 4, Engine: semanticEngine(t, engine.Options{})})
			seedDocs(t, s)
			before := s.Stats().Queries

			p, err := s.Engine().Compile(tc.lang, tc.src)
			if err != nil {
				t.Fatal(err)
			}
			ids, indexed, err := s.Find(context.Background(), p, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(ids) != 0 || indexed {
				t.Fatalf("Find = %v, indexed=%v; want empty, false", ids, indexed)
			}
			sels, _, err := s.Select(context.Background(), p, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(sels) != 0 {
				t.Fatalf("Select = %v, want empty", sels)
			}

			after := s.Stats().Queries
			if got := after.SemanticShortCircuits - before.SemanticShortCircuits; got != 2 {
				t.Fatalf("SemanticShortCircuits grew by %d, want 2 (find + select)", got)
			}
			// Zero index probes, zero evaluated documents: every execution
			// counter must be untouched.
			if after.FindIndexed != before.FindIndexed || after.FindScan != before.FindScan ||
				after.SelectIndexed != before.SelectIndexed || after.SelectScan != before.SelectScan {
				t.Fatalf("access-path counters moved: before %+v after %+v", before, after)
			}
			if after.CandidateDocs != before.CandidateDocs || after.ScannedDocs != before.ScannedDocs {
				t.Fatalf("candidate counters moved: before %+v after %+v", before, after)
			}
			if after.IntersectionSteps != before.IntersectionSteps {
				t.Fatalf("intersection steps moved: %d -> %d", before.IntersectionSteps, after.IntersectionSteps)
			}
		})
	}
}

// TestUnsatShortCircuitTraceAndExplain pins the observability half: the
// trace records a "semantic" span carrying the verdict, and Explain
// reports the semantic access path with the constant-empty program.
func TestUnsatShortCircuitTraceAndExplain(t *testing.T) {
	s := New(Options{Shards: 4, Engine: semanticEngine(t, engine.Options{})})
	seedDocs(t, s)
	p, err := s.Engine().Compile(engine.LangJSL, `(string && number)`)
	if err != nil {
		t.Fatal(err)
	}

	tr := trace.NewTrace("test")
	if _, _, err := s.Find(context.Background(), p, tr); err != nil {
		t.Fatal(err)
	}
	var verdict any
	var walk func(spans []*trace.SpanOut)
	walk = func(spans []*trace.SpanOut) {
		for _, sp := range spans {
			if sp.Name == "semantic" {
				verdict = sp.Attrs["verdict"]
			}
			walk(sp.Children)
		}
	}
	walk(tr.Spans())
	if verdict != "unsat" {
		t.Fatalf("semantic span verdict = %v, want \"unsat\"", verdict)
	}

	ex, err := s.Explain(context.Background(), p, "find")
	if err != nil {
		t.Fatal(err)
	}
	if ex.Access != "semantic" {
		t.Fatalf("explain access = %q, want \"semantic\"", ex.Access)
	}
	if ex.ActualCandidates != 0 || ex.ActualResults != 0 {
		t.Fatalf("explain candidates/results = %d/%d, want 0/0", ex.ActualCandidates, ex.ActualResults)
	}
	if !strings.Contains(ex.Plan.Physical, "const_empty") {
		t.Fatalf("explain physical plan not constant-empty:\n%s", ex.Plan.Physical)
	}
	if ex.Plan.Semantic == nil || ex.Plan.Semantic.Verdict != "unsat" {
		t.Fatalf("explain semantic section = %+v, want verdict unsat", ex.Plan.Semantic)
	}
}

// mustSchemaInfo compiles a schema literal.
func mustSchemaInfo(t *testing.T, src string) *engine.SchemaInfo {
	t.Helper()
	sch, err := schema.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := engine.CompileSchema(sch)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// TestSchemaEnforcement pins write-side schema validation: conforming
// documents land, nonconforming ones are rejected with ErrSchema and
// counted, in both the put and bulk paths.
func TestSchemaEnforcement(t *testing.T) {
	info := mustSchemaInfo(t, `{"type": "object", "required": ["k0"]}`)
	eng := semanticEngine(t, engine.Options{Schema: info})
	s := New(Options{Shards: 2, Engine: eng, Schema: info})

	if err := s.Put("ok", `{"k0": 1}`); err != nil {
		t.Fatalf("conforming put rejected: %v", err)
	}
	err := s.Put("bad", `{"k1": 2}`)
	if !errors.Is(err, ErrSchema) {
		t.Fatalf("nonconforming put error = %v, want ErrSchema", err)
	}
	if _, ok := s.Get("bad"); ok {
		t.Fatal("nonconforming document was stored")
	}

	res, err := s.BulkNDJSON(strings.NewReader("{\"k0\": 5}\n{\"nope\": 1}\n{\"k0\": 9}\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 2 || len(res.Errors) != 1 {
		t.Fatalf("bulk = %d ids, %d errors; want 2, 1", len(res.IDs), len(res.Errors))
	}
	if res.Errors[0].Line != 2 || !errors.Is(res.Errors[0].Err, ErrSchema) {
		t.Fatalf("bulk error = %+v, want ErrSchema at line 2", res.Errors[0])
	}
	if got := s.Stats().Queries.SchemaRejects; got != 2 {
		t.Fatalf("SchemaRejects = %d, want 2", got)
	}
}

// TestSchemaUnsatShortCircuit proves the schema-aware short-circuit: a
// query no conforming document can match answers empty on a
// schema-enforcing store, while a lawless store with the same engine
// still evaluates it honestly.
func TestSchemaUnsatShortCircuit(t *testing.T) {
	info := mustSchemaInfo(t, `{"type": "object", "required": ["k0"]}`)
	eng := semanticEngine(t, engine.Options{Schema: info})
	enforcing := New(Options{Shards: 2, Engine: eng, Schema: info})
	lawless := New(Options{Shards: 2, Engine: eng})

	if err := enforcing.Put("a", `{"k0": 1}`); err != nil {
		t.Fatal(err)
	}
	// The lawless store holds a root string — exactly what the query
	// matches and the schema forbids.
	if err := lawless.Put("s", `"hello"`); err != nil {
		t.Fatal(err)
	}

	p, err := eng.Compile(engine.LangJSL, `string`)
	if err != nil {
		t.Fatal(err)
	}
	if !p.SchemaUnsatisfiable() {
		t.Fatal("root-string query not schema-unsat under an object-only schema")
	}

	ids, _, err := enforcing.Find(context.Background(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Fatalf("enforcing store Find = %v, want empty", ids)
	}
	if got := enforcing.Stats().Queries.SemanticShortCircuits; got != 1 {
		t.Fatalf("enforcing SemanticShortCircuits = %d, want 1", got)
	}

	ids, _, err = lawless.Find(context.Background(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != "s" {
		t.Fatalf("lawless store Find = %v, want [s]: schema verdicts must not leak to stores that do not enforce the schema", ids)
	}
	if got := lawless.Stats().Queries.SemanticShortCircuits; got != 0 {
		t.Fatalf("lawless SemanticShortCircuits = %d, want 0", got)
	}
}

// TestSchemaTermPruning proves planner-side pruning: an index term the
// schema proves universal is skipped (visible in the explanation) and
// counted, and results are unchanged.
func TestSchemaTermPruning(t *testing.T) {
	info := mustSchemaInfo(t, `{"type": "object", "required": ["k0"]}`)
	eng := semanticEngine(t, engine.Options{Schema: info})
	s := New(Options{Shards: 2, Engine: eng, Schema: info})
	for i, doc := range []string{
		`{"k0": 1, "k1": 1}`,
		`{"k0": 2}`,
		`{"k0": 3, "k1": 3}`,
		`{"k0": 4}`,
	} {
		if err := s.Put(string(rune('a'+i)), doc); err != nil {
			t.Fatal(err)
		}
	}
	p, err := eng.Compile(engine.LangJNL, `([/k0] && [/k1])`)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := s.Explain(context.Background(), p, "find")
	if err != nil {
		t.Fatal(err)
	}
	var sawPruned bool
	for _, term := range ex.Terms {
		if term.Skipped && strings.Contains(term.Reason, "schema") {
			sawPruned = true
			if strings.Contains(term.Fact, "k1") {
				t.Fatalf("pruned %q: the schema says nothing about k1", term.Fact)
			}
		}
	}
	if !sawPruned {
		t.Fatalf("no schema-pruned term in explanation: %+v", ex.Terms)
	}

	ids, _, err := s.Find(context.Background(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "c"}; len(ids) != 2 || ids[0] != want[0] || ids[1] != want[1] {
		t.Fatalf("Find with pruned terms = %v, want %v", ids, want)
	}
	if got := s.Stats().Queries.TermsPruned; got == 0 {
		t.Fatal("TermsPruned = 0, want > 0")
	}

	// The same plan on a store without the schema must ignore the
	// pruning marks entirely.
	lawless := New(Options{Shards: 2, Engine: eng})
	if err := lawless.Put("x", `{"k0": 1, "k1": 1}`); err != nil {
		t.Fatal(err)
	}
	ex, err = lawless.Explain(context.Background(), p, "find")
	if err != nil {
		t.Fatal(err)
	}
	for _, term := range ex.Terms {
		if term.Skipped && strings.Contains(term.Reason, "schema") {
			t.Fatalf("schema-pruned term %q on a store that does not enforce the schema", term.Fact)
		}
	}
}

// TestSemanticShortCircuitDurableRecovery pins schema validation on the
// recovery path: a durable store that enforced a schema reopens its own
// data fine; reopening data written without the schema fails.
func TestSemanticShortCircuitDurableRecovery(t *testing.T) {
	dir := t.TempDir()
	info := mustSchemaInfo(t, `{"type": "object", "required": ["k0"]}`)

	// Write conforming and nonconforming docs with no schema enforced.
	s, err := Open(Options{Shards: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("good", `{"k0": 1}`); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("bad", `{"k1": 2}`); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopening under the schema must fail: the resident data would
	// silently break the conformance invariant the planner relies on.
	if _, err := Open(Options{Shards: 2, DataDir: dir, Schema: info}); !errors.Is(err, ErrSchema) {
		t.Fatalf("open over nonconforming data = %v, want ErrSchema", err)
	}

	// Delete the offender without the schema; the reopen then succeeds.
	s, err = Open(Options{Shards: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delete("bad"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(Options{Shards: 2, DataDir: dir, Schema: info, Engine: semanticEngine(t, engine.Options{Schema: info})})
	if err != nil {
		t.Fatalf("open over conforming data: %v", err)
	}
	defer s.Close()
	if s.Len() != 1 {
		t.Fatalf("recovered %d docs, want 1", s.Len())
	}
}
