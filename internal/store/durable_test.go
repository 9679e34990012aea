package store

// durable_test.go: crash-recovery tests. Every test drives a durable
// store and a plain in-memory reference through the same mutation
// sequence, kills the durable one (cleanly, abruptly, or abruptly
// plus deliberate file damage), reopens the directory and requires
// the recovered store to match the reference node for node — and the
// rebuilt inverted index to answer queries identically to a full
// scan, reusing the differential harness's generators.

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"jsonlogic/internal/engine"
	"jsonlogic/internal/gen"
	"jsonlogic/internal/jsontree"
)

func openDurable(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", opts.DataDir, err)
	}
	return s
}

// compactAll forces a dictionary compaction of every shard's
// memtable, so memtable index statistics depend only on the live
// documents.
func compactAll(s *Store) {
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.ix.compact()
		sh.mu.Unlock()
	}
}

// termCardinalities counts, per index term, the live documents
// carrying it — memtable postings filtered through the dictionary,
// segment posting lists decoded and filtered through the tombstone
// bitmap — so two stores' indexes can be compared regardless of which
// tier their postings live in.
func termCardinalities(t *testing.T, s *Store) map[uint64]int {
	t.Helper()
	out := make(map[uint64]int)
	for _, sh := range s.shards {
		sh.mu.RLock()
		for term, post := range sh.ix.postings {
			n := 0
			for _, ord := range post {
				if sh.ix.ids[ord] != "" {
					n++
				}
			}
			if n > 0 {
				out[term] += n
			}
		}
		if sh.seg != nil {
			for i := 0; i < sh.seg.termCount; i++ {
				hash := binary.LittleEndian.Uint64(sh.seg.termDir[i*termDirEntry:])
				pl, ok := sh.seg.termList(hash)
				if !ok {
					sh.mu.RUnlock()
					t.Fatalf("segment term directory entry %d unreadable", i)
				}
				ords, err := pl.decodeAll(nil)
				if err != nil {
					sh.mu.RUnlock()
					t.Fatalf("decode segment term %#x: %v", hash, err)
				}
				n := 0
				for _, ord := range ords {
					if !bitGet(sh.segDead, ord) {
						n++
					}
				}
				if n > 0 {
					out[hash] += n
				}
			}
		}
		sh.mu.RUnlock()
	}
	return out
}

// compareStores requires got and want to hold the same documents,
// node for node (String renders the canonical key-sorted form), and —
// since both indexes were built over the same final document set —
// identical index cardinalities when the shard layout matches.
func compareStores(t *testing.T, got, want *Store) {
	t.Helper()
	if g, w := got.Len(), want.Len(); g != w {
		t.Fatalf("recovered store has %d docs, want %d", g, w)
	}
	for _, sh := range want.shards {
		sh.ix.each(func(id string, wt *jsontree.Tree) {
			gt, ok := got.Get(id)
			if !ok {
				t.Fatalf("recovered store lost document %q", id)
			}
			if gt.Len() != wt.Len() || gt.String() != wt.String() {
				t.Fatalf("document %q differs after recovery:\ngot:  %s\nwant: %s", id, gt, wt)
			}
		})
	}
	if got.NumShards() == want.NumShards() && got.opts.MaxIndexDepth == want.opts.MaxIndexDepth {
		// Compare live per-term cardinalities across both tiers: a
		// segment-backed store must carry exactly the same inverted
		// index as the in-memory reference, term for term, whichever
		// tier each posting lives in.
		gc, wc := termCardinalities(t, got), termCardinalities(t, want)
		if len(gc) != len(wc) {
			t.Fatalf("rebuilt index has %d terms, want %d", len(gc), len(wc))
		}
		for term, wn := range wc {
			if gc[term] != wn {
				t.Fatalf("term %#x has cardinality %d after recovery, want %d", term, gc[term], wn)
			}
		}
	}
}

// diffQueries runs random queries from every front end over the
// recovered store, requiring the rebuilt index's answers to equal
// both the recovered store's own full scan and the reference store's
// scan.
func diffQueries(t *testing.T, r *rand.Rand, recovered, reference *Store, queries int) {
	t.Helper()
	eng := recovered.Engine()
	indexed := 0
	for i := 0; i < queries; i++ {
		var lang engine.Language
		var src string
		switch i % 3 {
		case 0:
			lang, src = engine.LangMongoFind, gen.RandomMongoSource(r, 2)
		case 1:
			lang, src = engine.LangJSONPath, gen.RandomJSONPathSource(r)
		default:
			lang, src = engine.LangJNL, gen.RandomJNLSource(r, 3)
		}
		p, err := eng.Compile(lang, src)
		if err != nil {
			t.Fatalf("generator bug: %q: %v", src, err)
		}
		got, wasIndexed, err := recovered.Find(context.Background(), p, nil)
		if err != nil {
			t.Fatalf("Find(%q): %v", src, err)
		}
		if wasIndexed {
			indexed++
		}
		own, err := recovered.FindScan(p)
		if err != nil {
			t.Fatalf("FindScan(%q): %v", src, err)
		}
		ref, err := reference.FindScan(p)
		if err != nil {
			t.Fatalf("reference FindScan(%q): %v", src, err)
		}
		if !sameIDs(got, own) || !sameIDs(got, ref) {
			t.Fatalf("query %q after recovery:\nindexed: %v\nown scan: %v\nreference: %v", src, got, own, ref)
		}
	}
	if indexed == 0 {
		t.Error("no recovery query used the rebuilt index; the check is vacuous")
	}
}

// mutate applies one random operation identically to the durable
// store and the reference, occasionally through bulk ingest.
func mutate(t *testing.T, r *rand.Rand, s, ref *Store, ids []string) {
	t.Helper()
	id := ids[r.Intn(len(ids))]
	switch r.Intn(10) {
	case 0, 1: // delete
		if _, err := s.Delete(id); err != nil {
			t.Fatalf("delete %q: %v", id, err)
		}
		ref.Delete(id)
	case 2: // bulk ingest a couple of documents (auto IDs)
		var sb strings.Builder
		for j := 0; j < 2; j++ {
			sb.WriteString(gen.Document(r, durableDocOptions()).String())
			sb.WriteByte('\n')
		}
		res, err := s.BulkNDJSON(strings.NewReader(sb.String()))
		if err != nil || len(res.Errors) > 0 {
			t.Fatalf("bulk: %v %v", err, res.Errors)
		}
		// Mirror under the assigned IDs.
		lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
		for j, bid := range res.IDs {
			if err := ref.Put(bid, lines[j]); err != nil {
				t.Fatal(err)
			}
		}
	default: // put / replace
		doc := gen.Document(r, durableDocOptions()).String()
		if err := s.Put(id, doc); err != nil {
			t.Fatalf("put %q: %v", id, err)
		}
		if err := ref.Put(id, doc); err != nil {
			t.Fatal(err)
		}
	}
}

func durableDocOptions() gen.DocOptions {
	return gen.DocOptions{Fanout: 3, Depth: 3, Keys: 10, ArrayBias: 40, ValueRange: 15}
}

func durableIDs() []string {
	ids := make([]string, 40)
	for i := range ids {
		ids[i] = fmt.Sprintf("doc%03d", i)
	}
	return ids
}

// TestDurableCleanRestart: a cleanly closed store (even with fsync
// off — Close flushes and syncs) reopens to exactly its final state,
// and the bulk-ingest ID sequence resumes past recovered IDs.
func TestDurableCleanRestart(t *testing.T) {
	dir := t.TempDir()
	r := rand.New(rand.NewSource(41))
	opts := Options{Shards: 4, DataDir: dir, Fsync: FsyncOff, SnapshotEvery: -1}
	s := openDurable(t, opts)
	ref := New(Options{Shards: 4})
	ids := durableIDs()
	for i := 0; i < 300; i++ {
		mutate(t, r, s, ref, ids)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := s.Put("late", `{"a":1}`); err == nil {
		t.Fatal("writes after Close must fail")
	}

	s2 := openDurable(t, opts)
	defer s2.Close()
	compareStores(t, s2, ref)
	rs := s2.Stats().Durability.Recovery
	if rs.WALRecordsReplayed == 0 || rs.TornTails != 0 {
		t.Fatalf("unexpected recovery stats: %+v", rs)
	}
	// The auto-ID sequence must not collide with recovered bulk IDs.
	before := s2.Len()
	res, err := s2.BulkNDJSON(strings.NewReader("{\"x\":1}\n"))
	if err != nil || len(res.IDs) != 1 {
		t.Fatalf("bulk after reopen: %v %v", res, err)
	}
	if s2.Len() != before+1 {
		t.Fatalf("bulk after reopen clobbered a document")
	}
}

// TestDurableCrashRecovery: under fsync=always every acknowledged
// write survives an abrupt crash — the reopened store matches the
// reference node for node and its rebuilt index answers random
// queries identically to a scan.
func TestDurableCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	r := rand.New(rand.NewSource(42))
	opts := Options{Shards: 4, DataDir: dir, Fsync: FsyncAlways, SnapshotEvery: -1}
	s := openDurable(t, opts)
	ref := New(Options{Shards: 4})
	ids := durableIDs()
	for i := 0; i < 250; i++ {
		mutate(t, r, s, ref, ids)
	}
	s.crashForTest()

	s2 := openDurable(t, opts)
	defer s2.Close()
	compareStores(t, s2, ref)
	rs := s2.Stats().Durability.Recovery
	if rs.WALRecordsReplayed == 0 {
		t.Fatalf("nothing replayed: %+v", rs)
	}
	diffQueries(t, r, s2, ref, 300)
}

// TestDurableTornTail: a crash mid-append leaves a torn record at the
// end of an active segment; recovery truncates exactly the tail and
// keeps every whole record.
func TestDurableTornTail(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 1, DataDir: dir, Fsync: FsyncAlways, SnapshotEvery: -1}
	s := openDurable(t, opts)
	ref := New(Options{Shards: 1})
	const docs = 25
	for i := 0; i < docs; i++ {
		doc := fmt.Sprintf(`{"i":%d,"pad":"%s"}`, i, strings.Repeat("x", 50))
		if err := s.Put(fmt.Sprintf("k%02d", i), doc); err != nil {
			t.Fatal(err)
		}
		ref.Put(fmt.Sprintf("k%02d", i), doc)
	}
	s.crashForTest()

	wal := walPath(s.dur.shardDir(0), 0)
	t.Run("partial-append", func(t *testing.T) {
		// Simulate a crash halfway through an append: a plausible
		// length prefix with only part of its payload behind it.
		f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte{200, 0, 0, 0, 1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		f.Close()

		s2 := openDurable(t, opts)
		defer s2.crashForTest()
		compareStores(t, s2, ref)
		rs := s2.Stats().Durability.Recovery
		if rs.TornTails != 1 || rs.TruncatedBytes != 7 {
			t.Fatalf("recovery stats = %+v, want 1 torn tail of 7 bytes", rs)
		}
	})
	t.Run("truncated-final-record", func(t *testing.T) {
		// Cut into the last whole record: it is lost, everything
		// before it survives.
		st, err := os.Stat(wal)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(wal, st.Size()-5); err != nil {
			t.Fatal(err)
		}
		ref.Delete(fmt.Sprintf("k%02d", docs-1))

		s2 := openDurable(t, opts)
		defer s2.crashForTest()
		compareStores(t, s2, ref)
		if rs := s2.Stats().Durability.Recovery; rs.TornTails != 1 {
			t.Fatalf("recovery stats = %+v, want a torn tail", rs)
		}
	})
	t.Run("corrupt-crc", func(t *testing.T) {
		// Flip a byte inside the (new) last record: the CRC refuses
		// it and the tail is truncated.
		raw, err := os.ReadFile(wal)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)-10] ^= 0xFF
		if err := os.WriteFile(wal, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		ref.Delete(fmt.Sprintf("k%02d", docs-2))

		s2 := openDurable(t, opts)
		defer s2.crashForTest()
		compareStores(t, s2, ref)
		if rs := s2.Stats().Durability.Recovery; rs.TornTails != 1 {
			t.Fatalf("recovery stats = %+v, want a torn tail", rs)
		}
	})
}

// TestDurableSnapshotAndTail: recovery composes the latest snapshot
// with the WAL tail written after it, and snapshots garbage-collect
// the generations they obsolete.
func TestDurableSnapshotAndTail(t *testing.T) {
	dir := t.TempDir()
	r := rand.New(rand.NewSource(43))
	opts := Options{Shards: 2, DataDir: dir, Fsync: FsyncAlways, SnapshotEvery: -1}
	s := openDurable(t, opts)
	ref := New(Options{Shards: 2})
	ids := durableIDs()
	for i := 0; i < 120; i++ {
		mutate(t, r, s, ref, ids)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	// The old generation is gone, the new one is on disk.
	for i := 0; i < s.NumShards(); i++ {
		sd := s.dur.shardDir(i)
		if _, err := os.Stat(walPath(sd, 0)); !os.IsNotExist(err) {
			t.Fatalf("shard %d: generation-0 WAL survived the snapshot", i)
		}
		if _, err := os.Stat(segFilePath(sd, 1)); err != nil {
			t.Fatalf("shard %d: missing segment: %v", i, err)
		}
	}
	for i := 0; i < 80; i++ {
		mutate(t, r, s, ref, ids)
	}
	s.crashForTest()

	s2 := openDurable(t, opts)
	compareStores(t, s2, ref)
	rs := s2.Stats().Durability.Recovery
	if rs.SegmentsMapped != s2.NumShards() {
		t.Fatalf("recovery stats = %+v, want %d segments mapped", rs, s2.NumShards())
	}
	if rs.SegmentDocs == 0 || rs.WALRecordsReplayed == 0 {
		t.Fatalf("recovery must combine segment and WAL tail: %+v", rs)
	}
	diffQueries(t, r, s2, ref, 150)

	// Round two: snapshot the recovered store, mutate, crash, recover.
	if err := s2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		mutate(t, r, s2, ref, ids)
	}
	s2.crashForTest()
	s3 := openDurable(t, opts)
	defer s3.Close()
	compareStores(t, s3, ref)
}

// TestDurableBackgroundSnapshot: the maintenance loop snapshots a
// shard once its segment exceeds SnapshotEvery records.
func TestDurableBackgroundSnapshot(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 1, DataDir: dir, Fsync: FsyncAlways, SnapshotEvery: 20}
	s := openDurable(t, opts)
	for i := 0; i < 60; i++ {
		if err := s.Put(fmt.Sprintf("k%02d", i), fmt.Sprintf(`{"i":%d}`, i)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := 0
	for s.Stats().Durability.Snapshots == 0 {
		deadline++
		if deadline > 200 {
			t.Fatal("background snapshotter never fired")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openDurable(t, opts)
	defer s2.Close()
	if s2.Len() != 60 {
		t.Fatalf("recovered %d docs, want 60", s2.Len())
	}
	if rs := s2.Stats().Durability.Recovery; rs.SegmentsMapped != 1 {
		t.Fatalf("recovery did not use the background segment: %+v", rs)
	}
}

// TestDurableInvalidSnapshotIsNotResurrected: once a snapshot's
// covering history is gone, a corrupted snapshot must fail recovery
// loudly instead of silently dropping the missing window.
func TestDurableInvalidSnapshotIsNotResurrected(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 1, DataDir: dir, Fsync: FsyncAlways, SnapshotEvery: -1}
	s := openDurable(t, opts)
	for i := 0; i < 10; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), `{"a":1}`); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	sd := s.dur.shardDir(0)
	s.crashForTest()
	raw, err := os.ReadFile(segFilePath(sd, 1))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(segFilePath(sd, 1), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(opts); err == nil {
		t.Fatal("Open must refuse a corrupt segment whose history is gone")
	}
}

// TestDurableOpenExclusive: a data directory has one owner at a time;
// a second Open fails fast instead of corrupting the first owner's
// WALs, and closing releases the lock.
func TestDurableOpenExclusive(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 2, DataDir: dir}
	s := openDurable(t, opts)
	if _, err := Open(opts); err == nil {
		t.Fatal("second Open on a held data dir must fail")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openDurable(t, opts)
	defer s2.Close()
}

// TestDurableManifestPinsShards: reopening with a different -shards
// keeps the on-disk layout's count.
func TestDurableManifestPinsShards(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, Options{Shards: 4, DataDir: dir})
	if err := s.Put("a", `{"x":1}`); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openDurable(t, Options{Shards: 32, DataDir: dir})
	defer s2.Close()
	if s2.NumShards() != 4 {
		t.Fatalf("reopen with -shards 32 produced %d shards, want the manifest's 4", s2.NumShards())
	}
	if _, ok := s2.Get("a"); !ok {
		t.Fatal("document lost across reopen")
	}
}

// TestDurableFsyncOffLosesAtMostTheTail: with fsync=off a crash may
// drop the buffered tail, but whatever survives is a consistent
// prefix — every recovered document matches what was written.
func TestDurableFsyncOffLosesAtMostTheTail(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 1, DataDir: dir, Fsync: FsyncOff, SnapshotEvery: -1, FsyncInterval: time.Hour}
	s := openDurable(t, opts)
	written := make(map[string]string)
	for i := 0; i < 50; i++ {
		doc := fmt.Sprintf(`{"i":%d}`, i)
		id := fmt.Sprintf("k%02d", i)
		if err := s.Put(id, doc); err != nil {
			t.Fatal(err)
		}
		written[id] = doc
	}
	s.crashForTest()
	s2 := openDurable(t, opts)
	defer s2.Close()
	if s2.Len() > len(written) {
		t.Fatalf("recovered more docs than written: %d", s2.Len())
	}
	for _, sh := range s2.shards {
		sh.ix.each(func(id string, tr *jsontree.Tree) {
			want, ok := written[id]
			if !ok {
				t.Fatalf("recovered unknown document %q", id)
			}
			wt := jsontree.MustParse(want)
			if tr.String() != wt.String() {
				t.Fatalf("document %q corrupted: %s want %s", id, tr, wt)
			}
		})
	}
}

// TestDurableTornMiddleSegmentRefusedRepeatedly: a torn non-final
// segment means the disk lost sealed, fsynced data; Open must refuse
// — and must still refuse on the next attempt, not truncate the
// evidence away on the first one and silently replay a shortened
// history on the second.
func TestDurableTornMiddleSegmentRefusedRepeatedly(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 1, DataDir: dir, Fsync: FsyncAlways, SnapshotEvery: -1}
	s := openDurable(t, opts)
	for i := 0; i < 5; i++ {
		if err := s.Put(fmt.Sprintf("a%d", i), `{"x":1}`); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Snapshot(); err != nil { // seals wal-0, starts wal-1 + snap-1
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Put(fmt.Sprintf("b%d", i), `{"x":2}`); err != nil {
			t.Fatal(err)
		}
	}
	// Roll to wal-2 without a snapshot (a failed snapshot attempt
	// leaves exactly this layout), making wal-1 a sealed middle
	// segment.
	sh := s.shards[0]
	sh.mu.Lock()
	_, err := s.dur.wals[0].rotate()
	sh.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("c0", `{"x":3}`); err != nil {
		t.Fatal(err)
	}
	s.crashForTest()

	// Corrupt the sealed middle segment mid-file.
	wal1 := walPath(s.dur.shardDir(0), 1)
	raw, err := os.ReadFile(wal1)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(wal1, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	sizeBefore := int64(len(raw))
	for attempt := 1; attempt <= 2; attempt++ {
		if _, err := Open(opts); err == nil {
			t.Fatalf("attempt %d: Open accepted a torn sealed middle segment", attempt)
		}
		st, err := os.Stat(wal1)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() != sizeBefore {
			t.Fatalf("attempt %d: refusal truncated the evidence (%d -> %d bytes)", attempt, sizeBefore, st.Size())
		}
	}
}

// TestDurableAutoIDNeverRecycled: bulk auto-IDs of documents deleted
// before a restart — even deleted before a snapshot, whose WAL
// records are GC'd — must not be handed out again afterwards.
func TestDurableAutoIDNeverRecycled(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 2, DataDir: dir, Fsync: FsyncAlways, SnapshotEvery: -1}
	s := openDurable(t, opts)
	res, err := s.BulkNDJSON(strings.NewReader("{\"a\":1}\n{\"a\":2}\n"))
	if err != nil || len(res.IDs) != 2 {
		t.Fatalf("bulk: %v %v", res, err)
	}
	if _, err := s.Delete(res.IDs[1]); err != nil {
		t.Fatal(err)
	}
	// Snapshot so the put+delete of res.IDs[1] vanish from the WAL;
	// only the footer's persisted counter remembers it existed.
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openDurable(t, opts)
	defer s2.Close()
	res2, err := s2.BulkNDJSON(strings.NewReader("{\"a\":3}\n"))
	if err != nil || len(res2.IDs) != 1 {
		t.Fatalf("bulk after reopen: %v %v", res2, err)
	}
	for _, old := range res.IDs {
		if res2.IDs[0] == old {
			t.Fatalf("auto-ID %s recycled after restart", old)
		}
	}
}

// TestWALRejectsOversizedRecord: a record larger than the replay-side
// frame bound must be refused at append time (it would otherwise be
// acknowledged and then truncated away as a "torn tail" on reopen) —
// and the refusal must not poison the WAL for later records.
func TestWALRejectsOversizedRecord(t *testing.T) {
	w, err := openShardWAL(osFS{}, 0, t.TempDir(), 0, FsyncOff, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	big := strings.Repeat("x", maxRecordPayload)
	if _, err := w.append(walRecord{op: opPut, id: "big", doc: big}); err == nil {
		t.Fatal("oversized record accepted; it would be lost as a torn tail on replay")
	}
	if _, err := w.append(walRecord{op: opPut, id: "ok", doc: `{"a":1}`}); err != nil {
		t.Fatalf("rejected record poisoned the WAL: %v", err)
	}
}

// TestWALCommitAfterCloseSucceeds: close flushes and fsyncs every
// appended record, so a commit that lost the race against a clean
// close must report success (the guarantee holds), not errWALClosed —
// while new appends after close still fail.
func TestWALCommitAfterCloseSucceeds(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncInterval} {
		w, err := openShardWAL(osFS{}, 0, t.TempDir(), 0, policy, 0)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := w.append(walRecord{op: opPut, id: "a", doc: `{"x":1}`})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.close(); err != nil {
			t.Fatal(err)
		}
		if err := w.commit(seq); err != nil {
			t.Fatalf("%v: commit of a record close made durable failed: %v", policy, err)
		}
		if _, err := w.append(walRecord{op: opPut, id: "b", doc: `{"x":2}`}); err == nil {
			t.Fatalf("%v: append after close succeeded", policy)
		}
	}
}

// TestDurableGroupCommitConcurrent: concurrent writers under
// fsync=always share fsyncs through group commit, and every
// acknowledged write survives the crash.
func TestDurableGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 2, DataDir: dir, Fsync: FsyncAlways, SnapshotEvery: -1}
	s := openDurable(t, opts)
	const writers, per = 8, 20
	var wg sync.WaitGroup
	errc := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := s.Put(fmt.Sprintf("w%d-%02d", w, i), fmt.Sprintf(`{"w":%d,"i":%d}`, w, i)); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	ds := s.Stats().Durability
	if ds.WALAppends != writers*per {
		t.Fatalf("wal appends = %d, want %d", ds.WALAppends, writers*per)
	}
	if ds.WALSyncs == 0 || ds.WALSyncs > ds.WALAppends {
		t.Fatalf("wal syncs = %d (appends %d): group commit broken", ds.WALSyncs, ds.WALAppends)
	}
	s.crashForTest()
	s2 := openDurable(t, opts)
	defer s2.Close()
	if s2.Len() != writers*per {
		t.Fatalf("recovered %d docs, want %d", s2.Len(), writers*per)
	}
}
