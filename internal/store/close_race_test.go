package store

// close_race_test.go: Store.Close racing in-flight queries. Close
// flushes and closes the WALs and stops the maintenance loops but
// never unmaps live segments (only a snapshot swap retires one, after
// installing its replacement), so a Find/Select that was already
// running keeps reading valid memory. The race detector is the real
// assertion here; the test also pins the weaker functional contract
// that results obtained mid-close are either complete or an error,
// never a panic.

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestCloseRacesInFlightQueries(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, Options{Shards: 4, DataDir: dir, Fsync: FsyncOff, SnapshotEvery: 50})
	for i := 0; i < 3000; i++ {
		if err := s.PutTree(fmt.Sprintf("d%05d", i), chaosDoc(i)); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	// Let the background snapshotter build at least one segment so the
	// queries below read through the mmap'd tier, not just the
	// memtable — that mapping staying valid across Close is the point.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Durability.Segments == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no segment built before the race window")
		}
		time.Sleep(5 * time.Millisecond)
	}

	p := scanPlan(t, s)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if g%2 == 0 {
					ids, _, err := s.Find(context.Background(), p, nil)
					if err == nil && len(ids) != 3000 {
						t.Errorf("find mid-close returned %d ids, want 3000 or an error", len(ids))
						return
					}
				} else {
					sels, _, err := s.Select(context.Background(), p, nil)
					if err == nil && len(sels) != 3000 {
						t.Errorf("select mid-close returned %d selections, want 3000 or an error", len(sels))
						return
					}
				}
			}
		}(g)
	}

	time.Sleep(20 * time.Millisecond) // queries certainly in flight
	if err := s.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	close(stop)
	wg.Wait()
}
