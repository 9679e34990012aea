package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"jsonlogic/internal/jsontree"
)

var personDoc = `{
	"name": {"first": "sue", "last": "storm"},
	"age": 34,
	"hobbies": ["yoga", "chess"]
}`

func personTree(t *testing.T) *jsontree.Tree {
	t.Helper()
	return jsontree.MustParse(personDoc)
}

func TestEvalPerLanguage(t *testing.T) {
	e := New(Options{})
	tr := personTree(t)
	cases := []struct {
		lang      Language
		src       string
		wantCount int
		wantValid bool
	}{
		{LangJNL, `[/name/first]`, 1, true},
		{LangJNL, `[/nope]`, 0, false},
		{LangJSONPath, `$.hobbies[*]`, 2, true},
		{LangJSONPath, `$..first`, 1, true},
		{LangJSONPath, `$.missing`, 0, false},
		{LangJSL, `object && some("age", number && min(30))`, 1, true},
		{LangJSL, `some("age", min(100))`, 1, false},
		{LangMongoFind, `{"age": {"$gte": 30}}`, 0, true},
		{LangMongoFind, `{"age": {"$lt": 30}}`, 0, false},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/%s", tc.lang, tc.src), func(t *testing.T) {
			p, err := e.Compile(tc.lang, tc.src)
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			ok, err := e.Validate(context.Background(), p, tr)
			if err != nil {
				t.Fatalf("Validate: %v", err)
			}
			if ok != tc.wantValid {
				t.Errorf("Validate = %v, want %v", ok, tc.wantValid)
			}
			nodes, err := e.Eval(context.Background(), p, tr)
			if err != nil {
				t.Fatalf("Eval: %v", err)
			}
			switch tc.lang {
			case LangJNL, LangJSONPath:
				if len(nodes) != tc.wantCount {
					t.Errorf("Eval selected %d nodes, want %d", len(nodes), tc.wantCount)
				}
			case LangJSL, LangMongoFind:
				// Node-selection semantics for validation languages:
				// the root's membership is the verdict.
				rootIn := false
				for _, n := range nodes {
					if n == tr.Root() {
						rootIn = true
					}
				}
				if rootIn != tc.wantValid {
					t.Errorf("root in Eval set = %v, want %v", rootIn, tc.wantValid)
				}
			}
		})
	}
}

func TestCompileErrors(t *testing.T) {
	e := New(Options{})
	cases := []struct {
		lang Language
		src  string
	}{
		{LangJNL, `[/unclosed`},
		{LangJSL, `some(`},
		{LangJSL, `def g = g; g`}, // unguarded self-reference: not well-formed
		{LangJSONPath, `store.book`},
		{LangMongoFind, `[1,2]`},
		{Language(99), `anything`},
	}
	for _, tc := range cases {
		if _, err := e.Compile(tc.lang, tc.src); err == nil {
			t.Errorf("Compile(%v, %q): want error", tc.lang, tc.src)
		}
	}
	// Errors must not be cached: stats show misses only.
	if s := e.CacheStats(); s.Entries != 0 {
		t.Errorf("failed compiles were cached: %+v", s)
	}
}

func TestPlanCacheHitsAndSharing(t *testing.T) {
	e := New(Options{})
	p1, err := e.Compile(LangJNL, `[/name]`)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := e.Compile(LangJNL, `[/name]`)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("second Compile of the same source returned a different plan")
	}
	// The same source in a different language is a different plan.
	if _, err := e.Compile(LangJSL, `true`); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Compile(LangJNL, `true`); err != nil {
		t.Fatal(err)
	}
	s := e.CacheStats()
	if s.Hits != 1 || s.Misses != 3 || s.Entries != 3 {
		t.Errorf("stats = %+v, want 1 hit, 3 misses, 3 entries", s)
	}
	if s.Capacity != DefaultPlanCacheSize {
		t.Errorf("default capacity = %d, want %d", s.Capacity, DefaultPlanCacheSize)
	}
}

func TestPlanCacheLRUEviction(t *testing.T) {
	e := New(Options{PlanCacheSize: 2})
	mustCompile := func(src string) *Plan {
		t.Helper()
		p, err := e.Compile(LangJNL, src)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := mustCompile(`[/a]`)
	mustCompile(`[/b]`)
	// Touch a so b becomes the LRU entry, then overflow.
	if got := mustCompile(`[/a]`); got != a {
		t.Fatal("expected cache hit for a")
	}
	mustCompile(`[/c]`) // evicts b
	s := e.CacheStats()
	if s.Evictions != 1 || s.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction, 2 entries", s)
	}
	if got := mustCompile(`[/a]`); got != a {
		t.Error("a was evicted instead of b")
	}
	before := e.CacheStats().Misses
	mustCompile(`[/b]`) // must re-compile: it was evicted
	if e.CacheStats().Misses != before+1 {
		t.Error("b was still cached after eviction")
	}
}

func TestNDJSONValidateReader(t *testing.T) {
	e := New(Options{Workers: 4})
	p := MustCompile(LangMongoFind, `{"v": {"$gte": 10}}`)
	var sb strings.Builder
	want := make([]bool, 0, 100)
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&sb, `{"v": %d, "tag": "t%d"}`+"\n", i, i)
		want = append(want, i >= 10)
		if i%10 == 0 {
			sb.WriteString("\n") // blank lines are skipped
		}
	}
	results, err := e.ValidateReader(p, strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 100 {
		t.Fatalf("got %d results, want 100", len(results))
	}
	for i, res := range results {
		if res.Index != i {
			t.Fatalf("result %d has index %d", i, res.Index)
		}
		if res.Err != nil {
			t.Fatalf("doc %d: %v", i, res.Err)
		}
		if res.Valid != want[i] {
			t.Errorf("doc %d: valid=%v, want %v", i, res.Valid, want[i])
		}
	}
}

func TestNDJSONEvalReaderAndBadLines(t *testing.T) {
	e := New(Options{Workers: 3})
	p := MustCompile(LangJSONPath, `$.items[*]`)
	input := `{"items": [1, 2, 3]}
{"items": []}
{broken
{"items": [5]}`
	results, err := e.EvalReader(p, strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d results, want 4", len(results))
	}
	wantCounts := []int{3, 0, -1, 1} // -1 = parse error expected
	for i, res := range results {
		if wantCounts[i] < 0 {
			if res.Err == nil {
				t.Errorf("doc %d: want parse error", i)
			}
			continue
		}
		if res.Err != nil {
			t.Errorf("doc %d: %v", i, res.Err)
			continue
		}
		if len(res.Nodes) != wantCounts[i] {
			t.Errorf("doc %d: %d nodes, want %d", i, len(res.Nodes), wantCounts[i])
		}
		if res.Tree == nil {
			t.Errorf("doc %d: missing tree", i)
		}
		if res.Line != i+1 {
			t.Errorf("doc %d: line %d, want %d", i, res.Line, i+1)
		}
	}
}

func TestLanguageNames(t *testing.T) {
	for _, l := range []Language{LangJNL, LangJSL, LangJSONPath, LangMongoFind} {
		got, err := ParseLanguage(l.String())
		if err != nil || got != l {
			t.Errorf("ParseLanguage(%q) = (%v, %v)", l.String(), got, err)
		}
	}
	if _, err := ParseLanguage("sql"); err == nil {
		t.Error("ParseLanguage(sql): want error")
	}
}
