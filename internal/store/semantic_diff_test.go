package store

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"jsonlogic/internal/containment"
	"jsonlogic/internal/engine"
	"jsonlogic/internal/gen"
	"jsonlogic/internal/jauto"
	"jsonlogic/internal/jnl"
	"jsonlogic/internal/jsl"
	"jsonlogic/internal/jsonpath"
	"jsonlogic/internal/jsontree"
	"jsonlogic/internal/mongoq"
)

// The metamorphic containment harness: the paper's containment
// procedure makes claims about query *results* — P ⊑ Q means every
// document matching P matches Q — so every claim is checked against
// actual executions. For ≥1000 random query pairs per front end the
// harness decides containment both ways and then asserts, on a random
// collection:
//
//   - P ⊑ Q        ⇒ Find(P) ⊆ Find(Q)
//   - P ≡ Q        ⇒ Find(P) = Find(Q), element for element
//   - P ⋢ Q        ⇒ the returned counterexample document satisfies P
//     and refutes Q under the production evaluator — the witness is
//     re-verified, never trusted
//
// Half the pairs are random-random (mostly incomparable — they
// exercise the counterexample branch); half are related by
// construction (conjunction strengthening, path extension), so the
// contained branch is exercised densely too. Budget-exhausted checks
// are skipped: ErrBudget means "unknown", and unknown claims nothing.

// semDiffPairs is the number of query pairs per front end.
const semDiffPairs = 1050

// semDiffDocs is the random collection size the claims are checked on.
const semDiffDocs = 32

// semDiffCaps bounds each containment decision. Deliberately larger
// than the daemon's per-compile budget: the harness wants verdicts to
// check, not compile latency.
func semDiffCaps() jauto.Caps {
	c := jauto.DefaultCaps()
	c.MaxSteps = 200000
	return c
}

// semPair is one generated query pair with its decidable JSL forms.
type semPair struct {
	srcP, srcQ string
	jslP, jslQ *jsl.Recursive
}

// toRecursiveJSL mirrors the engine's recursiveJSLForm: the front-end
// source translated into the form the decision procedures work on, or
// nil when outside the decidable fragment.
func toRecursiveJSL(t *testing.T, lang engine.Language, src string) *jsl.Recursive {
	t.Helper()
	switch lang {
	case engine.LangJNL:
		u, err := jnl.Parse(src)
		if err != nil {
			t.Fatalf("generator bug: %q does not parse: %v", src, err)
		}
		r, err := jauto.JNLToRecursiveJSL(u)
		if err != nil {
			return nil
		}
		return r
	case engine.LangJSL:
		r, err := jsl.ParseRecursive(src)
		if err != nil {
			t.Fatalf("generator bug: %q does not parse: %v", src, err)
		}
		return r
	case engine.LangMongoFind:
		f, err := mongoq.Parse(src)
		if err != nil {
			t.Fatalf("generator bug: %q does not parse: %v", src, err)
		}
		return jsl.NonRecursive(f.Formula())
	case engine.LangJSONPath:
		jp, err := jsonpath.Compile(src)
		if err != nil {
			t.Fatalf("generator bug: %q does not compile: %v", src, err)
		}
		r, err := jauto.JNLToRecursiveJSL(jnl.Exists{Path: jp.Binary()})
		if err != nil {
			return nil
		}
		return r
	}
	return nil
}

// relatedPair builds a pair contained by construction: P strengthens Q
// (conjunction for the boolean front ends, a path extension for
// JSONPath), so P ⊑ Q semantically — the procedure must agree unless
// the budget runs out.
func relatedPair(r *rand.Rand, lang engine.Language) (srcP, srcQ string) {
	switch lang {
	case engine.LangJNL:
		q := gen.RandomJNLSource(r, 1)
		return "(" + q + " && " + gen.RandomJNLSource(r, 1) + ")", q
	case engine.LangJSL:
		q := gen.RandomJSLSource(r, 1)
		return "(" + q + " && " + gen.RandomJSLSource(r, 1) + ")", q
	case engine.LangMongoFind:
		q := gen.RandomMongoSource(r, 1)
		return fmt.Sprintf(`{"$and":[%s,%s]}`, q, gen.RandomMongoSource(r, 1)), q
	case engine.LangJSONPath:
		// Steps are self-delimiting, so appending to any generated path
		// is syntactically valid; semantically P's selections are reached
		// through Q's, so "P selects ≥1 node" implies the same for Q.
		q := gen.RandomJSONPathSource(r)
		ext := []string{".k0", "[0]", ".*", "[?(@.k1)]"}[r.Intn(4)]
		return q + ext, q
	}
	panic("unreachable")
}

func randomPair(r *rand.Rand, lang engine.Language) (srcP, srcQ string) {
	switch lang {
	case engine.LangJNL:
		return gen.RandomJNLSource(r, 2), gen.RandomJNLSource(r, 2)
	case engine.LangJSL:
		return gen.RandomJSLSource(r, 2), gen.RandomJSLSource(r, 2)
	case engine.LangMongoFind:
		return gen.RandomMongoSource(r, 2), gen.RandomMongoSource(r, 2)
	case engine.LangJSONPath:
		return gen.RandomJSONPathSource(r), gen.RandomJSONPathSource(r)
	}
	panic("unreachable")
}

// subsetOf reports a ⊆ b for sorted ID slices.
func subsetOf(a, b []string) bool {
	j := 0
	for _, id := range a {
		for j < len(b) && b[j] < id {
			j++
		}
		if j >= len(b) || b[j] != id {
			return false
		}
	}
	return true
}

// runSemanticDifferential drives one front end through the harness.
func runSemanticDifferential(t *testing.T, seed int64, lang engine.Language) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	eng := engine.New(engine.Options{PlanCacheSize: 128})
	caps := semDiffCaps()
	docOpts := gen.DocOptions{Fanout: 3, Depth: 3, Keys: 12, ArrayBias: 40, ValueRange: 20}

	var s *Store
	decided, contained, refuted := 0, 0, 0
	for i := 0; i < semDiffPairs; i++ {
		// Rotate the collection so the claims are checked against many
		// document shapes, not one lucky draw.
		if i%50 == 0 {
			s = New(Options{Shards: 4, Engine: eng})
			for d := 0; d < semDiffDocs; d++ {
				s.PutTree(fmt.Sprintf("doc%03d", d), jsontree.FromValue(gen.Document(r, docOpts)))
			}
		}
		var srcP, srcQ string
		if i%2 == 0 {
			srcP, srcQ = relatedPair(r, lang)
		} else {
			srcP, srcQ = randomPair(r, lang)
		}
		jslP := toRecursiveJSL(t, lang, srcP)
		jslQ := toRecursiveJSL(t, lang, srcQ)
		if jslP == nil || jslQ == nil {
			continue // outside the decidable fragment (EQ(α,β), …)
		}
		pq, err := containment.RecursiveCaps(jslP, jslQ, caps)
		if err != nil {
			if errors.Is(err, jauto.ErrBudget) {
				continue // unknown claims nothing
			}
			t.Fatalf("containment(%q, %q): %v", srcP, srcQ, err)
		}
		decided++

		planP, err := eng.Compile(lang, srcP)
		if err != nil {
			t.Fatalf("compile %q: %v", srcP, err)
		}
		planQ, err := eng.Compile(lang, srcQ)
		if err != nil {
			t.Fatalf("compile %q: %v", srcQ, err)
		}

		if !pq.Contained {
			// The procedure claims a separating document exists and hands
			// it over; the production evaluator must agree on both sides.
			refuted++
			if pq.Counterexample == nil {
				t.Fatalf("not-contained verdict without counterexample: %q vs %q", srcP, srcQ)
			}
			w := jsontree.FromValue(pq.Counterexample)
			okP, err := eng.Validate(context.Background(), planP, w)
			if err != nil {
				t.Fatalf("validate witness against %q: %v", srcP, err)
			}
			okQ, err := eng.Validate(context.Background(), planQ, w)
			if err != nil {
				t.Fatalf("validate witness against %q: %v", srcQ, err)
			}
			if !okP || okQ {
				t.Fatalf("counterexample for %q ⋢ %q does not separate: P=%v Q=%v witness=%s",
					srcP, srcQ, okP, okQ, pq.Counterexample)
			}
			continue
		}

		// P ⊑ Q: every matching document of P must match Q.
		contained++
		idsP, _, err := s.Find(context.Background(), planP, nil)
		if err != nil {
			t.Fatalf("Find(%q): %v", srcP, err)
		}
		idsQ, _, err := s.Find(context.Background(), planQ, nil)
		if err != nil {
			t.Fatalf("Find(%q): %v", srcQ, err)
		}
		if !subsetOf(idsP, idsQ) {
			t.Fatalf("containment violated on execution: %q ⊑ %q decided, but Find(P)=%v ⊄ Find(Q)=%v",
				srcP, srcQ, idsP, idsQ)
		}
		qp, err := containment.RecursiveCaps(jslQ, jslP, caps)
		if err == nil && qp.Contained && !sameIDs(idsP, idsQ) {
			t.Fatalf("equivalence violated on execution: %q ≡ %q decided, but Find(P)=%v != Find(Q)=%v",
				srcP, srcQ, idsP, idsQ)
		}
	}
	if decided < semDiffPairs/4 {
		t.Fatalf("only %d/%d pairs decided: the harness is not exercising the procedure", decided, semDiffPairs)
	}
	if contained == 0 || refuted == 0 {
		t.Fatalf("one-sided harness: %d contained, %d refuted of %d decided", contained, refuted, decided)
	}
	t.Logf("%s: %d pairs, %d decided (%d contained, %d refuted)", lang, semDiffPairs, decided, contained, refuted)
}

func TestSemanticDifferentialJNL(t *testing.T) {
	runSemanticDifferential(t, 71, engine.LangJNL)
}

func TestSemanticDifferentialJSL(t *testing.T) {
	runSemanticDifferential(t, 72, engine.LangJSL)
}

func TestSemanticDifferentialJSONPath(t *testing.T) {
	runSemanticDifferential(t, 73, engine.LangJSONPath)
}

func TestSemanticDifferentialMongo(t *testing.T) {
	runSemanticDifferential(t, 74, engine.LangMongoFind)
}
