package engine

import (
	"context"
	"math/rand"
	"testing"

	"jsonlogic/internal/gen"
	"jsonlogic/internal/jsontree"
)

// factStrings renders facts for comparison.
func factStrings(facts []jsontree.PathFact) []string {
	out := make([]string, len(facts))
	for i, f := range facts {
		out[i] = f.String()
	}
	return out
}

func TestIndexFactExtraction(t *testing.T) {
	cases := []struct {
		lang Language
		src  string
		find []string // expected FindFacts, rendered; nil = scan
	}{
		// The QIR derivation anchors navigation: a keyed (positional)
		// first step forces the source to be an object (array), and a
		// class or value fact at a path subsumes its presence fact.
		{LangMongoFind, `{"user.name":"sue"}`, []string{"$ kind=object", "/user kind=object", "/user/name value=\"sue\""}},
		{LangMongoFind, `{"a.b":{"$gt":3}}`, []string{"$ kind=object", "/a kind=object", "/a/b kind=number"}},
		{LangMongoFind, `{"a":{"$type":"array"}}`, []string{"$ kind=object", "/a kind=array"}},
		{LangMongoFind, `{"a":{"$ne":1}}`, nil},
		{LangMongoFind, `{"a":{"$exists":0}}`, nil},
		{LangMongoFind, `{"$or":[{"a":1},{"b":2}]}`, nil},
		{LangMongoFind, `{"tags.0":"x"}`, []string{"$ kind=object", "/tags kind=array", "/tags/0 value=\"x\""}},
		{LangMongoFind, `{"a":{"x":1}}`, []string{"$ kind=object", "/a kind=object", "/a/x value=1"}},
		{LangJSONPath, `$.store.book[0].title`, []string{
			"$ kind=object", "/store kind=object", "/store/book kind=array",
			"/store/book/0 kind=object", "/store/book/0/title"}},
		{LangJSONPath, `$.store..price`, []string{"$ kind=object", "/store"}},
		{LangJSONPath, `$[2].a`, []string{"$ kind=array", "/2 kind=object", "/2/a"}},
		{LangJSONPath, `$.*`, nil},
		{LangJNL, `[/a/b]`, []string{"$ kind=object", "/a kind=object", "/a/b"}},
		{LangJNL, `eq(/a, 7)`, []string{"$ kind=object", "/a value=7"}},
		{LangJNL, `eq(/a, {"k":1})`, []string{"$ kind=object", "/a kind=object", "/a/k value=1"}},
		{LangJNL, `(eq(/a, 1) && [/b])`, []string{"$ kind=object", "/a value=1", "/b"}},
		{LangJNL, `!eq(/a, 1)`, nil},
		{LangJNL, `eq(/a, /b)`, []string{"$ kind=object", "/a", "/b"}},
		{LangJNL, `[/a /[1:3]]`, []string{"$ kind=object", "/a kind=array", "/a/1"}},
		{LangJNL, `[(/a)*]`, nil},
		{LangJSL, `some("a", number)`, []string{"$ kind=object", "/a kind=number"}},
		{LangJSL, `all("a", number)`, nil},
		{LangJSL, `def g = number || some("a", g) ; g`, nil},
	}
	for _, c := range cases {
		p, err := Compile(c.lang, c.src)
		if err != nil {
			t.Fatalf("compile (%v, %q): %v", c.lang, c.src, err)
		}
		got := factStrings(p.FindFacts())
		if len(got) != len(c.find) {
			t.Errorf("(%v, %q): FindFacts = %v, want %v", c.lang, c.src, got, c.find)
			continue
		}
		for i := range got {
			if got[i] != c.find[i] {
				t.Errorf("(%v, %q): FindFacts[%d] = %q, want %q", c.lang, c.src, i, got[i], c.find[i])
			}
		}
	}
}

// TestSelectFactsAnchoring pins the semantics split: JSONPath selection
// is root-anchored so its facts serve both modes; JNL/JSL/mongo node
// selection is unanchored and must not claim select support.
func TestSelectFactsAnchoring(t *testing.T) {
	got := factStrings(MustCompile(LangJSONPath, `$.a.b[*]`).SelectFacts())
	want := []string{"$ kind=object", "/a kind=object", "/a/b"}
	if len(got) != len(want) {
		t.Errorf("JSONPath select facts = %v, want %v", got, want)
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("JSONPath select facts[%d] = %q, want %q", i, got[i], want[i])
			}
		}
	}
	for _, p := range []*Plan{
		MustCompile(LangJNL, `[/a]`),
		MustCompile(LangJSL, `some("a", true)`),
		MustCompile(LangMongoFind, `{"a":1}`),
	} {
		if facts := p.SelectFacts(); len(facts) != 0 {
			t.Errorf("(%v, %q): unanchored selection claims select facts %v",
				p.Language(), p.Source(), factStrings(facts))
		}
	}
}

// TestIndexFactSoundness is the property the whole index rests on:
// whenever a document matches a plan, every extracted find fact holds
// on it, and whenever Eval selects any node, every select fact holds.
// Violations would make the index drop true results.
func TestIndexFactSoundness(t *testing.T) {
	r := rand.New(rand.NewSource(1234))
	e := New(Options{PlanCacheSize: 128})
	docOpts := gen.DocOptions{Fanout: 3, Depth: 3, Keys: 12, ArrayBias: 40, ValueRange: 20}
	type frontEnd struct {
		lang Language
		gen  func() string
	}
	fronts := []frontEnd{
		{LangJNL, func() string { return gen.RandomJNLSource(r, 3) }},
		{LangJSL, func() string { return gen.RandomJSLSource(r, 3) }},
		{LangJSONPath, func() string { return gen.RandomJSONPathSource(r) }},
		{LangMongoFind, func() string { return gen.RandomMongoSource(r, 2) }},
	}
	checked := 0
	for i := 0; i < 4000; i++ {
		tr := jsontree.FromValue(gen.Document(r, docOpts))
		fe := fronts[i%len(fronts)]
		src := fe.gen()
		p, err := e.Compile(fe.lang, src)
		if err != nil {
			t.Fatalf("generator bug: (%v, %q): %v", fe.lang, src, err)
		}
		ok, err := e.Validate(context.Background(), p, tr)
		if err != nil {
			t.Fatalf("validate (%v, %q): %v", fe.lang, src, err)
		}
		if ok {
			for _, f := range p.FindFacts() {
				checked++
				if !f.Holds(tr) {
					t.Fatalf("unsound find fact %s for (%v, %q)\nmatching tree: %s", f, fe.lang, src, tr)
				}
			}
		}
		nodes, err := e.Eval(context.Background(), p, tr)
		if err != nil {
			t.Fatalf("eval (%v, %q): %v", fe.lang, src, err)
		}
		if len(nodes) > 0 {
			for _, f := range p.SelectFacts() {
				checked++
				if !f.Holds(tr) {
					t.Fatalf("unsound select fact %s for (%v, %q)\ntree: %s", f, fe.lang, src, tr)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("property test never checked a fact; generators drifted")
	}
	t.Logf("checked %d fact obligations", checked)
}
