package store

// recover_bench_test.go: the startup-cost benchmark the segment tier
// exists for (committed to BENCH_8.json). Two disk layouts holding
// the same collection are reopened at 10k and 100k documents:
//
//	wal-replay     no base at all — every record reparsed and
//	               reindexed (the pre-snapshot worst case; O(n))
//	segment-open   the segment layout — the file is mapped and its
//	               footer CRC checked; no JSON parse, no posting list
//	               rebuilt (O(1) in the document count, O(n) only in
//	               the CRC sweep of file bytes)
//
// segment-open is in bench-diff's hot-path allowlist: Open latency is
// a serving property now (a restart at 100k documents must not cost a
// 100k-document replay).

import (
	"fmt"
	"testing"
)

var recoverBenchSizes = []int{10000, 100000}

// seedRecoverDir fills a fresh durable store with n documents and
// closes it, leaving the requested layout behind.
func seedRecoverDir(b *testing.B, opts Options, n int, layout string) {
	b.Helper()
	s, err := Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		doc := fmt.Sprintf(`{"sensor":"s%d","value":%d,"nested":{"a":[%d,"x"]}}`, i%32, i, i%100)
		if err := s.Put(fmt.Sprintf("doc%07d", i), doc); err != nil {
			b.Fatal(err)
		}
	}
	if layout != "wal-replay" {
		if err := s.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStoreRecover measures Open against the two layouts. The
// acceptance bar for the segment tier: segment-open at 100k documents
// at least 10× faster than wal-replay.
func BenchmarkStoreRecover(b *testing.B) {
	for _, layout := range []string{"wal-replay", "segment-open"} {
		for _, n := range recoverBenchSizes {
			b.Run(fmt.Sprintf("%s/docs=%d", layout, n), func(b *testing.B) {
				opts := Options{Shards: 16, DataDir: b.TempDir(), Fsync: FsyncOff, SnapshotEvery: -1}
				seedRecoverDir(b, opts, n, layout)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s, err := Open(opts)
					if err != nil {
						b.Fatal(err)
					}
					if s.Len() != n {
						b.Fatalf("recovered %d docs, want %d", s.Len(), n)
					}
					if err := s.Close(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
