package jauto_test

// Witness-soundness fuzzing: the satisfiability procedure's answers are
// claims about the production evaluator, so both polarities are checked
// against it. A SAT verdict hands over a witness document — it must
// actually satisfy the query when run through the engine. An UNSAT
// verdict claims no document matches — cross-checked against a battery
// of random trees, none of which may validate. The target lives in an
// external test package so it can drive the real engine (which itself
// imports jauto) without an import cycle.

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"jsonlogic/internal/engine"
	"jsonlogic/internal/gen"
	"jsonlogic/internal/jauto"
	"jsonlogic/internal/jnl"
	"jsonlogic/internal/jsontree"
)

// fuzzUnsatTrees is how many random documents an UNSAT verdict is
// cross-checked against.
const fuzzUnsatTrees = 200

// fuzzSatCaps bounds each satisfiability call. Tighter than the
// defaults so the fuzzer spends its time on many inputs rather than
// deep searches; ErrBudget inputs are skipped, not failed.
func fuzzSatCaps() jauto.Caps {
	c := jauto.DefaultCaps()
	c.MaxSteps = 200000
	return c
}

func FuzzJNLSat(f *testing.F) {
	f.Add(`[/k0]`)
	f.Add(`([/k0] && !([/k0]))`)
	f.Add(`(eq(/a/b, 5) || [/a <eq(eps, "x")>])`)
	f.Add(`[/k0 /[0:2]]`)
	f.Add(`[(/a)* /b]`)
	f.Add(`[/~"k.*" <[/nested]>]`)
	f.Add(`!([/k1] || [/k2 <[/a]>])`)

	eng := engine.New(engine.Options{PlanCacheSize: 256})

	f.Fuzz(func(t *testing.T, src string) {
		u, err := jnl.Parse(src)
		if err != nil {
			return
		}
		if _, err := jauto.JNLToRecursiveJSL(u); err != nil {
			return // outside the decidable fragment (EQ(α,β), test-only loops)
		}
		w, ok, err := jauto.SatisfiableJNLCaps(u, fuzzSatCaps())
		if errors.Is(err, jauto.ErrBudget) {
			return // unknown claims nothing
		}
		if err != nil {
			t.Fatalf("SatisfiableJNL(%q): %v", src, err)
		}
		plan, err := eng.Compile(engine.LangJNL, src)
		if err != nil {
			// The engine rejects what jnl.Parse accepted; the decision
			// procedure made no claim about the engine then.
			return
		}
		if ok {
			tree := jsontree.FromValue(w)
			valid, err := eng.Validate(context.Background(), plan, tree)
			if err != nil {
				t.Fatalf("Validate(%q, witness): %v", src, err)
			}
			if !valid {
				t.Fatalf("SAT witness for %q rejected by the engine: %s", src, w)
			}
			if _, err := eng.Eval(context.Background(), plan, tree); err != nil {
				t.Fatalf("Eval(%q, witness): %v", src, err)
			}
			return
		}
		// UNSAT is a universal claim: no random document may validate.
		h := fnv.New64a()
		fmt.Fprint(h, src)
		r := rand.New(rand.NewSource(int64(h.Sum64())))
		opts := gen.DocOptions{Fanout: 3, Depth: 3, Keys: 12, ArrayBias: 40, ValueRange: 20}
		for i := 0; i < fuzzUnsatTrees; i++ {
			tree := jsontree.FromValue(gen.Document(r, opts))
			valid, err := eng.Validate(context.Background(), plan, tree)
			if err != nil {
				t.Fatalf("Validate(%q, random doc): %v", src, err)
			}
			if valid {
				t.Fatalf("UNSAT verdict for %q refuted by random document %d", src, i)
			}
		}
	})
}
