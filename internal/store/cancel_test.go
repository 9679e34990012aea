package store

// cancel_test.go: cooperative query cancellation. A context that
// expires mid-query must abort the fan-out promptly (checkpoints in
// the per-shard loops and inside the executor), surface ctx.Err() to
// the caller, bump the cancellation counter — and context.Background
// must keep the unchecked fast path with identical answers.

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"jsonlogic/internal/engine"
)

func cancelStore(t *testing.T, docs int) *Store {
	t.Helper()
	s := New(Options{Shards: 4})
	for i := 0; i < docs; i++ {
		if err := s.PutTree(fmt.Sprintf("d%05d", i), chaosDoc(i)); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	return s
}

// scanPlan compiles a query no index fact supports, forcing a full
// evaluation of every document.
func scanPlan(t *testing.T, s *Store) *engine.Plan {
	t.Helper()
	p, err := s.Engine().Compile(engine.LangMongoFind, `{"n":{"$ne":999999999}}`)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

func TestFindCancelledContext(t *testing.T) {
	s := cancelStore(t, 2000)
	p := scanPlan(t, s)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := s.Stats().Queries.Cancellations
	_, _, err := s.Find(ctx, p, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("find with cancelled ctx: got %v, want context.Canceled", err)
	}
	if got := s.Stats().Queries.Cancellations; got != before+1 {
		t.Fatalf("cancellations counter %d, want %d", got, before+1)
	}
}

func TestSelectCancelledContext(t *testing.T) {
	s := cancelStore(t, 2000)
	p := scanPlan(t, s)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := s.Select(ctx, p, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("select with cancelled ctx: got %v, want context.Canceled", err)
	}
}

// TestFindDeadlineBoundedReturn: an expired deadline over a large
// scan must return well before the scan would finish — the loops
// checkpoint every batchCancelDocs documents and the executor every
// cancelCheckEvery steps, so the latency bound is a few checkpoint
// intervals, not the query's runtime.
func TestFindDeadlineBoundedReturn(t *testing.T) {
	s := cancelStore(t, 20000)
	p := scanPlan(t, s)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done() // deadline certainly expired
	start := time.Now()
	_, _, err := s.Find(ctx, p, nil)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("find past deadline: got %v, want DeadlineExceeded", err)
	}
	// Generous bound: the uncancelled scan takes far longer, an
	// aborted one only ever evaluates a checkpoint interval per worker.
	if elapsed > time.Second {
		t.Fatalf("cancelled find took %v; checkpointing is not bounding the return", elapsed)
	}
}

func TestExplainHonoursContext(t *testing.T) {
	s := cancelStore(t, 2000)
	p := scanPlan(t, s)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Explain(ctx, p, "find"); !errors.Is(err, context.Canceled) {
		t.Fatalf("explain with cancelled ctx: got %v, want context.Canceled", err)
	}
}

// TestBackgroundContextMatchesLive: the one entry point per mode
// answers identically whether its checkpoints are unarmed
// (context.Background) or armed by a live context, on both access
// paths, and neither records a cancellation.
func TestBackgroundContextMatchesLive(t *testing.T) {
	s := cancelStore(t, 500)
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	indexed, err := s.Engine().Compile(engine.LangMongoFind, `{"n":7}`)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	for _, p := range []*engine.Plan{scanPlan(t, s), indexed} {
		ids, _, err := s.Find(context.Background(), p, nil)
		if err != nil {
			t.Fatalf("find: %v", err)
		}
		liveIDs, _, err := s.Find(live, p, nil)
		if err != nil {
			t.Fatalf("find with live ctx: %v", err)
		}
		if len(ids) == 0 || !sameIDs(ids, liveIDs) {
			t.Fatalf("%s: Background find %d ids, live %d", p.Source(), len(ids), len(liveIDs))
		}
		sels, _, err := s.Select(context.Background(), p, nil)
		if err != nil {
			t.Fatalf("select: %v", err)
		}
		liveSels, _, err := s.Select(live, p, nil)
		if err != nil {
			t.Fatalf("select with live ctx: %v", err)
		}
		if len(sels) == 0 || !sameSelections(sels, liveSels) {
			t.Fatalf("%s: Background select %d docs, live %d", p.Source(), len(sels), len(liveSels))
		}
	}
	if s.Stats().Queries.Cancellations != 0 {
		t.Fatal("uncancelled queries recorded cancellations")
	}
}

// TestLiveContextCompletes: a context that never expires must not
// perturb results.
func TestLiveContextCompletes(t *testing.T) {
	s := cancelStore(t, 500)
	p := scanPlan(t, s)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	ids, _, err := s.Find(ctx, p, nil)
	if err != nil || len(ids) != 500 {
		t.Fatalf("find with live ctx: %d ids, err %v", len(ids), err)
	}
	sels, _, err := s.Select(ctx, p, nil)
	if err != nil || len(sels) != 500 {
		t.Fatalf("select with live ctx: %d selections, err %v", len(sels), err)
	}
}
