package engine

import (
	"fmt"

	"jsonlogic/internal/jnl"
	"jsonlogic/internal/jsl"
	"jsonlogic/internal/jsonpath"
	"jsonlogic/internal/jsontree"
	"jsonlogic/internal/mongoq"
	"jsonlogic/internal/qir"
	"jsonlogic/internal/trace"
)

// Language selects the front end a source text is compiled with.
type Language uint8

const (
	// LangJNL is a unary JNL formula in the concrete syntax of
	// jnl.Parse, e.g. "[/name/first]".
	LangJNL Language = iota
	// LangJSL is a (possibly recursive) JSL expression in the syntax of
	// jsl.ParseRecursive, e.g. "object && some(\"name\", string)".
	LangJSL
	// LangJSONPath is a JSONPath expression, e.g. "$.store.book[*]".
	LangJSONPath
	// LangMongoFind is a MongoDB find-filter document, e.g.
	// `{"age": {"$gt": 30}}`.
	LangMongoFind
)

// String returns the canonical name of the language.
func (l Language) String() string {
	switch l {
	case LangJNL:
		return "jnl"
	case LangJSL:
		return "jsl"
	case LangJSONPath:
		return "jsonpath"
	case LangMongoFind:
		return "mongo"
	}
	return fmt.Sprintf("Language(%d)", uint8(l))
}

// ParseLanguage maps a language name ("jnl", "jsl", "jsonpath",
// "mongo") to its Language, for command-line front ends.
func ParseLanguage(name string) (Language, error) {
	switch name {
	case "jnl":
		return LangJNL, nil
	case "jsl":
		return LangJSL, nil
	case "jsonpath":
		return LangJSONPath, nil
	case "mongo", "mongofind":
		return LangMongoFind, nil
	}
	return 0, fmt.Errorf("engine: unknown language %q", name)
}

// Plan is a compiled, immutable query. Compilation parses the source
// under its front end, lowers the result into the unified query
// algebra (internal/qir), compiles the algebra into a physical
// operator program, and derives the index facts the store's planner
// consumes — all once. A Plan never changes after Compile and may be
// evaluated from any number of goroutines concurrently; all
// per-evaluation mutable state lives inside each Eval/Validate call.
//
// The original front-end ASTs are retained alongside the lowered query
// so the per-language evaluators can serve as differential-test
// oracles (EvalReference, ValidateReference); production evaluation
// runs exclusively through the QIR program.
type Plan struct {
	lang   Language
	source string

	// Reference ASTs for the oracle evaluators.
	unary jnl.Unary      // LangJNL
	rec   *jsl.Recursive // LangJSL and LangMongoFind
	path  jnl.Binary     // LangJSONPath

	// The unified algebra: lowered logical query and compiled physical
	// program.
	query *qir.Query
	prog  *qir.Program

	// Index facts derived from the lowered query (hints.go): necessary
	// conditions for Validate (findFacts) and for a non-empty Eval
	// (selectFacts). Empty slices mean "not index-supported".
	findFacts   []jsontree.PathFact
	selectFacts []jsontree.PathFact

	// Semantic-pass results (semantic.go); zero values when the pass is
	// disabled or the plan was compiled outside an engine. Filled before
	// the plan is published to the cache, immutable afterwards.
	sem    semanticInfo
	semJSL *jsl.Recursive // canonical recursive-JSL form; nil if unavailable
}

// Language returns the plan's front-end language.
func (p *Plan) Language() Language { return p.lang }

// Source returns the source text the plan was compiled from.
func (p *Plan) Source() string { return p.source }

// Query returns the plan's lowered logical query. The query is shared
// and must not be modified.
func (p *Plan) Query() *qir.Query { return p.query }

// Compile parses and compiles src under the given language without
// consulting any cache. Engine.Compile is the cached entry point.
func Compile(lang Language, src string) (*Plan, error) {
	return compileTraced(lang, src, nil, trace.None)
}

// compileTraced is Compile recording the front-end parse and the QIR
// compile as child spans of parent. tr may be nil (untraced).
func compileTraced(lang Language, src string, tr *trace.Trace, parent trace.SpanID) (*Plan, error) {
	p := &Plan{lang: lang, source: src}
	sp := tr.Start(parent, "parse")
	err := p.parseAndLower(lang, src)
	tr.End(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.Start(parent, "qir_compile")
	p, err = p.finish()
	tr.End(sp)
	return p, err
}

// parseAndLower runs the front end: parse src under lang and lower the
// result into the unified algebra (p.query), retaining the reference
// AST for the oracle evaluators.
func (p *Plan) parseAndLower(lang Language, src string) error {
	switch lang {
	case LangJNL:
		u, err := jnl.Parse(src)
		if err != nil {
			return err
		}
		p.unary = u
		p.query = &qir.Query{Pred: jnl.Lower(u)}
	case LangJSL:
		r, err := jsl.ParseRecursive(src)
		if err != nil {
			return err
		}
		// Well-formedness (guardedness, no dangling refs) is a property
		// of the expression, so it is checked once here rather than on
		// every evaluation.
		if err := r.WellFormed(); err != nil {
			return err
		}
		p.rec = r
		p.query = r.Lower()
	case LangJSONPath:
		jp, err := jsonpath.Compile(src)
		if err != nil {
			return err
		}
		p.path = jp.Binary()
		p.query = jp.Lower()
	case LangMongoFind:
		f, err := mongoq.Parse(src)
		if err != nil {
			return err
		}
		p.rec = jsl.NonRecursive(f.Formula())
		p.query = f.Lower()
	default:
		return fmt.Errorf("engine: unknown language %d", lang)
	}
	return nil
}

// finish compiles the lowered query into its physical program and
// derives the plan's index facts; shared by Compile and FromJSL.
func (p *Plan) finish() (*Plan, error) {
	prog, err := qir.Compile(p.query)
	if err != nil {
		return nil, err
	}
	p.prog = prog
	p.computeFacts()
	return p, nil
}

// FromJSL wraps an already-built recursive JSL expression in a Plan,
// for pipelines that translate into JSL rather than parse it — notably
// the Theorem 1 JSON Schema translation. The label stands in for the
// source text (such plans are not cache-keyed by the engine; callers
// hold and share the *Plan themselves). The expression must not be
// mutated afterwards.
func FromJSL(label string, r *jsl.Recursive) (*Plan, error) {
	if err := r.WellFormed(); err != nil {
		return nil, err
	}
	p := &Plan{lang: LangJSL, source: label, rec: r, query: r.Lower()}
	return p.finish()
}

// MustCompile is Compile but panics on error; for statically known
// queries in tests and examples.
func MustCompile(lang Language, src string) *Plan {
	p, err := Compile(lang, src)
	if err != nil {
		panic(err)
	}
	return p
}

// EvalReference computes the node-selection semantics with the
// original front-end evaluator instead of the QIR program. It exists
// for the differential test harness and the benchmarks that compare
// the unified executor against its oracles; production callers use
// Engine.Eval.
func (p *Plan) EvalReference(t *jsontree.Tree) ([]jsontree.NodeID, error) {
	switch p.lang {
	case LangJNL:
		return jnl.NewEvaluator(t).Eval(p.unary).Slice(), nil
	case LangJSONPath:
		return jnl.NewEvaluator(t).Select(p.path, t.Root()), nil
	case LangJSL, LangMongoFind:
		sets, err := jsl.NewEvaluator(t).EvalRecursivePrechecked(p.rec)
		if err != nil {
			return nil, err
		}
		var out []jsontree.NodeID
		for i, ok := range sets {
			if ok {
				out = append(out, jsontree.NodeID(i))
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("engine: unknown language %d", p.lang)
}

// ValidateReference computes the boolean semantics with the original
// front-end evaluator; EvalReference's counterpart.
func (p *Plan) ValidateReference(t *jsontree.Tree) (bool, error) {
	switch p.lang {
	case LangJNL:
		return jnl.NewEvaluator(t).Holds(p.unary, t.Root()), nil
	case LangJSONPath:
		return len(jnl.NewEvaluator(t).Select(p.path, t.Root())) > 0, nil
	case LangJSL, LangMongoFind:
		sets, err := jsl.NewEvaluator(t).EvalRecursivePrechecked(p.rec)
		if err != nil {
			return false, err
		}
		return sets[t.Root()], nil
	}
	return false, fmt.Errorf("engine: unknown language %d", p.lang)
}

// PlanExplain is the compile-time half of a query explanation: the
// lowered logical tree, the physical operator program, and the index
// facts the store's cost-based planner will consult. Store.Explain
// adds the run-time half (chosen access path, estimated versus actual
// cardinalities).
type PlanExplain struct {
	Language    string   `json:"language"`
	Source      string   `json:"source"`
	Logical     string   `json:"logical"`
	Physical    string   `json:"physical"`
	FindFacts   []string `json:"find_facts,omitempty"`
	SelectFacts []string `json:"select_facts,omitempty"`
	// Semantic reports the semantic pass's outcome (verdict, borrowed
	// facts, schema-pruned terms); nil when the pass did not run.
	Semantic *SemanticExplain `json:"semantic,omitempty"`
}

// Explain renders the plan's logical and physical trees.
func (p *Plan) Explain() PlanExplain {
	ex := PlanExplain{
		Language: p.lang.String(),
		Source:   p.source,
		Logical:  p.query.String(),
		Physical: p.prog.Describe(),
		Semantic: p.semanticExplain(),
	}
	for _, f := range p.findFacts {
		ex.FindFacts = append(ex.FindFacts, f.String())
	}
	for _, f := range p.selectFacts {
		ex.SelectFacts = append(ex.SelectFacts, f.String())
	}
	return ex
}
