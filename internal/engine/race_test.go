package engine

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"jsonlogic/internal/gen"
	"jsonlogic/internal/jsontree"
)

// TestSharedPlanConcurrentEval is the regression test for the
// evaluator-sharing design: one cached plan is hammered from many
// goroutines over distinct trees (plus one tree shared read-only by
// all), and every result must match the precomputed reference. Run
// under `go test -race` this pins the contract that a Plan is immutable
// and all mutable evaluation state is call-local.
func TestSharedPlanConcurrentEval(t *testing.T) {
	const (
		goroutines = 12
		iterations = 40
	)
	e := New(Options{})
	// The formula exercises every piece of per-evaluation mutable state:
	// regex-axis edge marks, subtree-equality classes (EQ over
	// non-deterministic paths) and node-set algebra.
	src := `([(/~"k.*")* <eq(/k1, /k2)>] || eq((/~".*" | /[0:3]), 7)) && !eq(/k0, "s1")`
	plan, err := e.Compile(LangJNL, src)
	if err != nil {
		t.Fatal(err)
	}

	r := rand.New(rand.NewSource(42))
	opts := gen.DocOptions{Fanout: 4, Depth: 4, Keys: 8, ArrayBias: 40, ValueRange: 12}
	shared := jsontree.FromValue(gen.Document(r, opts))
	sharedWant, err := Compile(LangJNL, src)
	if err != nil {
		t.Fatal(err)
	}
	sharedExpected, err := e.Eval(context.Background(), sharedWant, shared)
	if err != nil {
		t.Fatal(err)
	}

	type work struct {
		tree     *jsontree.Tree
		expected []jsontree.NodeID
	}
	works := make([]work, goroutines)
	for i := range works {
		tr := jsontree.FromValue(gen.Document(r, opts))
		expected, err := e.Eval(context.Background(), sharedWant, tr)
		if err != nil {
			t.Fatal(err)
		}
		works[i] = work{tree: tr, expected: expected}
	}

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := works[g]
			for it := 0; it < iterations; it++ {
				got, err := e.Eval(context.Background(), plan, w.tree)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d iter %d: %v", g, it, err)
					return
				}
				if !sameNodes(got, w.expected) {
					errs <- fmt.Errorf("goroutine %d iter %d: result diverged on own tree", g, it)
					return
				}
				// Interleave evaluations over the tree shared by all
				// goroutines: trees are immutable and must tolerate
				// concurrent readers.
				got, err = e.Eval(context.Background(), plan, shared)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d iter %d (shared): %v", g, it, err)
					return
				}
				if !sameNodes(got, sharedExpected) {
					errs <- fmt.Errorf("goroutine %d iter %d: result diverged on shared tree", g, it)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentCompileEvictAndBatch stresses the cache's concurrency:
// many goroutines compile an overlapping working set larger than the
// cache (forcing concurrent evictions and recompiles) while others run
// validation loops and NDJSON evaluations. Counters must balance afterwards.
func TestConcurrentCompileEvictAndBatch(t *testing.T) {
	e := New(Options{PlanCacheSize: 8, Workers: 4})
	sources := make([]string, 24)
	for i := range sources {
		sources[i] = fmt.Sprintf(`[/k%d] || eq(/k%d, %d)`, i%12, (i+5)%12, i)
	}
	tr := jsontree.MustParse(`{"k1": 7, "k5": [1, 2, 3], "k9": {"k1": 7}}`)

	const compilers = 8
	var wg sync.WaitGroup
	errs := make(chan error, compilers+2)
	for g := 0; g < compilers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				src := sources[r.Intn(len(sources))]
				p, err := e.Compile(LangJNL, src)
				if err != nil {
					errs <- err
					return
				}
				if p.Source() != src {
					errs <- fmt.Errorf("cache returned plan for %q when asked for %q", p.Source(), src)
					return
				}
				if _, err := e.Eval(context.Background(), p, tr); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		p := MustCompile(LangMongoFind, `{"k1": {"$gte": 5}}`)
		trees := make([]*jsontree.Tree, 32)
		for i := range trees {
			trees[i] = jsontree.MustParse(fmt.Sprintf(`{"k1": %d}`, i))
		}
		for i := 0; i < 20; i++ {
			for j, tr := range trees {
				ok, err := e.Validate(context.Background(), p, tr)
				if err != nil {
					errs <- err
					return
				}
				if ok != (j >= 5) {
					errs <- fmt.Errorf("batch verdict %d = %v under concurrency", j, ok)
					return
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		p := MustCompile(LangJSONPath, `$.items[*]`)
		var sb strings.Builder
		for i := 0; i < 50; i++ {
			fmt.Fprintf(&sb, `{"items": [%d, %d]}`+"\n", i, i+1)
		}
		for i := 0; i < 10; i++ {
			results, err := e.EvalReader(p, strings.NewReader(sb.String()))
			if err != nil {
				errs <- err
				return
			}
			for _, res := range results {
				if res.Err != nil || len(res.Nodes) != 2 {
					errs <- fmt.Errorf("NDJSON under concurrency: doc %d nodes=%d err=%v", res.Index, len(res.Nodes), res.Err)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	s := e.CacheStats()
	if s.Entries > 8 {
		t.Errorf("cache exceeded its bound: %+v", s)
	}
	if s.Hits+s.Misses < compilers*200 {
		t.Errorf("cache counters lost calls: %+v", s)
	}
}
