package engine_test

// Runnable godoc examples for the engine layer: compile once, share
// the plan, evaluate anywhere. `go test ./internal/engine/` executes
// these, so the documentation cannot rot.

import (
	"context"
	"fmt"

	"jsonlogic/internal/engine"
	"jsonlogic/internal/jsontree"
)

// Compile a JSONPath expression into a shared plan and select nodes
// from a document. The same Engine (and the same *Plan) may be used
// from any number of goroutines.
func ExampleEngine_Eval() {
	eng := engine.New(engine.Options{})
	plan, err := eng.Compile(engine.LangJSONPath, `$.store.book[0].title`)
	if err != nil {
		panic(err)
	}
	doc := jsontree.MustParse(`{"store":{"book":[{"title":"Sculpting in Time","pages":256}]}}`)
	nodes, err := eng.Eval(context.Background(), plan, doc)
	if err != nil {
		panic(err)
	}
	for _, n := range nodes {
		fmt.Println(doc.Value(n))
	}
	// Output: "Sculpting in Time"
}

// Validate documents against a JSL formula (the paper's schema
// logic). Validate runs the plan's boolean semantics: does the
// document satisfy the formula at the root?
func ExampleEngine_Validate() {
	eng := engine.New(engine.Options{})
	plan, err := eng.Compile(engine.LangJSL, `object && some("age", number && min(18))`)
	if err != nil {
		panic(err)
	}
	for _, doc := range []string{`{"age":42}`, `{"age":7}`, `{"name":"ann"}`} {
		ok, err := eng.Validate(context.Background(), plan, jsontree.MustParse(doc))
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s -> %v\n", doc, ok)
	}
	// Output:
	// {"age":42} -> true
	// {"age":7} -> false
	// {"name":"ann"} -> false
}

// Repeated compiles of the same source hit the bounded LRU plan
// cache: the parse/translate/normalize cost is paid once per cache
// residency, not per request.
func ExampleEngine_Compile() {
	eng := engine.New(engine.Options{PlanCacheSize: 8})
	for i := 0; i < 3; i++ {
		if _, err := eng.Compile(engine.LangMongoFind, `{"age":{"$gte":21}}`); err != nil {
			panic(err)
		}
	}
	cs := eng.CacheStats()
	fmt.Printf("hits=%d misses=%d entries=%d\n", cs.Hits, cs.Misses, cs.Entries)
	// Output: hits=2 misses=1 entries=1
}
