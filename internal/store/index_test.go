package store

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"jsonlogic/internal/engine"
	"jsonlogic/internal/jsontree"
)

// Edge-case coverage for the dictionary-encoded posting lists:
// delete-then-reinsert of one ID, tombstone compaction across
// snapshot/recover, the empty-intersection early exit, and a property
// test that probe output is always sorted and duplicate-free under
// arbitrary churn.

// TestDeleteReinsertSameID pins ordinal handling across a
// delete/reinsert cycle of the same document ID: the reinsert draws a
// fresh ordinal (never the tombstoned one — posting lists would
// otherwise resurrect the old document's terms), and queries see
// exactly the new content.
func TestDeleteReinsertSameID(t *testing.T) {
	s := New(Options{Shards: 1})
	put := func(doc string) {
		t.Helper()
		if err := s.Put("x", doc); err != nil {
			t.Fatal(err)
		}
	}
	put(`{"color":"red","n":1}`)
	if _, err := s.Delete("x"); err != nil {
		t.Fatal(err)
	}
	put(`{"color":"green","n":2}`)

	if got := mustFind(t, s, engine.LangMongoFind, `{"color":"red"}`); len(got) != 0 {
		t.Fatalf("reinserted doc still matches its pre-delete content: %v", got)
	}
	if got := mustFind(t, s, engine.LangMongoFind, `{"color":"green"}`); len(got) != 1 || got[0] != "x" {
		t.Fatalf(`find color=green = %v, want [x]`, got)
	}
	// Whatever ordinal "x" now holds must resolve to the new tree.
	ix := s.shards[0].ix
	ord, ok := ix.ords["x"]
	if !ok {
		t.Fatal("dictionary lost the reinserted ID")
	}
	if ix.ids[ord] != "x" || ix.trees[ord] == nil {
		t.Fatalf("dictionary slot %d does not hold the live document", ord)
	}
	// And the index must drain completely once the doc goes away again.
	if _, err := s.Delete("x"); err != nil {
		t.Fatal(err)
	}
	compactAll(s)
	if st := s.Stats(); st.Docs != 0 || st.Terms != 0 || st.Entries != 0 {
		t.Fatalf("index did not drain after reinsert+delete: %+v", st)
	}
}

// TestTombstoneCompactionAcrossSnapshotRecover drives a durable store
// through put/delete churn, snapshots (which compacts every shard),
// crashes it, and requires the recovered store to match an in-memory
// reference built from only the surviving documents — tombstones must
// neither resurrect deleted documents nor leak into the snapshot.
func TestTombstoneCompactionAcrossSnapshotRecover(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 4, DataDir: dir, Fsync: FsyncAlways, SnapshotEvery: -1}
	s := openDurable(t, opts)
	ref := New(Options{Shards: 4})

	apply := func(st *Store) {
		for i := 0; i < 60; i++ {
			if err := st.Put(fmt.Sprintf("doc%02d", i), fmt.Sprintf(`{"i":%d,"bucket":"b%d"}`, i, i%4)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 60; i += 2 { // tombstone half the collection
			if _, err := st.Delete(fmt.Sprintf("doc%02d", i)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 60; i += 6 { // and reinsert every third deleted ID
			if err := st.Put(fmt.Sprintf("doc%02d", i), fmt.Sprintf(`{"i":%d,"back":1}`, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	apply(s)
	apply(ref)

	if err := s.Snapshot(); err != nil { // rotates WALs and compacts every shard
		t.Fatal(err)
	}
	// Post-snapshot churn so recovery also replays a WAL tail over the
	// compacted base.
	for _, st := range []*Store{s, ref} {
		if err := st.Put("doc01", `{"i":1,"rewritten":1}`); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Delete("doc03"); err != nil {
			t.Fatal(err)
		}
	}
	s.crashForTest()

	s2 := openDurable(t, opts)
	defer s2.Close()
	compareStores(t, s2, ref)

	// The rebuilt index must answer exactly like a scan after all the
	// tombstone churn.
	for _, src := range []string{`{"bucket":"b1"}`, `{"back":1}`, `{"rewritten":1}`} {
		p, err := s2.Engine().Compile(engine.LangMongoFind, src)
		if err != nil {
			t.Fatal(err)
		}
		ids, _, err := s2.Find(context.Background(), p, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := s2.FindScan(p)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(ids, want) {
			t.Fatalf("recovered index disagrees with scan on %s: %v vs %v", src, ids, want)
		}
	}
}

// TestProbeEmptyIntersectionEarlyExit pins the missing-term short
// circuit: one absent term empties the intersection with zero merge
// steps, whatever else is in the term list.
func TestProbeEmptyIntersectionEarlyExit(t *testing.T) {
	s := New(Options{Shards: 1})
	for i := 0; i < 32; i++ {
		if err := s.Put(fmt.Sprintf("d%d", i), fmt.Sprintf(`{"a":%d,"b":%d}`, i, i%4)); err != nil {
			t.Fatal(err)
		}
	}
	ix := s.shards[0].ix
	present := presenceTerm(pathHash([]jsontree.Step{jsontree.Key("a")}))
	absent := presenceTerm(pathHash([]jsontree.Step{jsontree.Key("nope")}))
	scr := acquireProbeScratch()
	defer releaseProbeScratch(scr)
	for _, terms := range [][]uint64{
		{absent},
		{present, absent},
		{absent, present},
		nil,
	} {
		ords, steps, _ := ix.probe(terms, scr)
		if len(ords) != 0 || steps != 0 {
			t.Fatalf("probe(%v) = %d ordinals, %d steps; want empty with zero steps", terms, len(ords), steps)
		}
	}
}

// TestProbeSortedDedupProperty is the probe invariant under random
// churn: after any interleaving of puts, replacements and deletes (so
// posting lists carry tombstones mid-run), intersecting any subset of
// live terms yields strictly ascending ordinals whose live documents
// all carry every probed term.
func TestProbeSortedDedupProperty(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	s := New(Options{Shards: 1})
	ix := s.shards[0].ix
	colors := []string{"red", "green", "blue"}
	live := map[string]string{} // id → color
	for round := 0; round < 400; round++ {
		id := fmt.Sprintf("d%d", r.Intn(50))
		switch r.Intn(3) {
		case 0:
			s.Delete(id)
			delete(live, id)
		default:
			color := colors[r.Intn(len(colors))]
			if err := s.Put(id, fmt.Sprintf(`{"color":"%s","pad":%d}`, color, r.Intn(5))); err != nil {
				t.Fatal(err)
			}
			live[id] = color
		}
		if round%7 != 0 {
			continue
		}
		// Probe a random term pair: presence of "color" plus one value.
		color := colors[r.Intn(len(colors))]
		valTree := jsontree.MustParse(fmt.Sprintf(`{"color":"%s"}`, color))
		valHash := valTree.SubtreeHash(valTree.ChildByKey(valTree.Root(), "color"))
		terms := []uint64{
			presenceTerm(pathHash([]jsontree.Step{jsontree.Key("color")})),
			valueTerm(pathHash([]jsontree.Step{jsontree.Key("color")}), valHash),
		}
		scr := acquireProbeScratch()
		ords, _, _ := ix.probe(terms, scr)
		for i := 1; i < len(ords); i++ {
			if ords[i-1] >= ords[i] {
				t.Fatalf("round %d: probe output not strictly ascending: %v", round, ords)
			}
		}
		got := map[string]bool{}
		for _, ord := range ords {
			if id := ix.ids[ord]; id != "" {
				if got[id] {
					t.Fatalf("round %d: live ID %q yielded twice", round, id)
				}
				got[id] = true
			}
		}
		releaseProbeScratch(scr)
		// Soundness + completeness against the model: the live probe
		// hits are exactly the live docs of that color.
		for id, c := range live {
			if (c == color) != got[id] {
				t.Fatalf("round %d: probe for %q got[%s]=%v, model color %q", round, color, id, got[id], c)
			}
		}
		if len(got) != countColor(live, color) {
			t.Fatalf("round %d: probe returned %d live docs, model has %d", round, len(got), countColor(live, color))
		}
	}
}

func countColor(live map[string]string, color string) int {
	n := 0
	for _, c := range live {
		if c == color {
			n++
		}
	}
	return n
}
