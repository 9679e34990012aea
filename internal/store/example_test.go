package store_test

// Runnable godoc examples for the storage tier: the in-memory
// sharded/indexed store and the durable variant (Open) backed by a
// write-ahead log with snapshot recovery. `go test ./internal/store/`
// executes these.

import (
	"context"
	"fmt"
	"os"

	"jsonlogic/internal/engine"
	"jsonlogic/internal/store"
)

// Put documents into a sharded in-memory store and match them with a
// MongoDB find filter. The returned indexed flag reports whether the
// candidate set came from the inverted path index (posting-list
// intersection) rather than a full scan.
func ExampleStore_Find() {
	s := store.New(store.Options{Shards: 4})
	// The two ageless documents matter: they keep the "/age kind=number"
	// posting list selective enough that the cost-based planner picks
	// the index over a scan.
	for id, doc := range map[string]string{
		"u1": `{"name":"sue","age":34}`,
		"u2": `{"name":"bob","age":17}`,
		"u3": `{"name":"ann","age":41}`,
		"g1": `{"group":"admins"}`,
		"g2": `{"group":"users"}`,
	} {
		if err := s.Put(id, doc); err != nil {
			panic(err)
		}
	}
	plan, err := s.Engine().Compile(engine.LangMongoFind, `{"age":{"$gte":21}}`)
	if err != nil {
		panic(err)
	}
	ids, indexed, err := s.Find(context.Background(), plan, nil)
	if err != nil {
		panic(err)
	}
	fmt.Println(ids, indexed)
	// Output: [u1 u3] true
}

// Open a durable store: every put and delete is written ahead to a
// per-shard log before it is acknowledged, so closing (or crashing)
// and reopening the same directory recovers the collection and
// rebuilds the index.
func ExampleOpen() {
	dir, err := os.MkdirTemp("", "store-example-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	s, err := store.Open(store.Options{Shards: 4, DataDir: dir, Fsync: store.FsyncAlways})
	if err != nil {
		panic(err)
	}
	if err := s.Put("greeting", `{"text":"hello","to":["world"]}`); err != nil {
		panic(err)
	}
	if err := s.Close(); err != nil {
		panic(err)
	}

	reopened, err := store.Open(store.Options{DataDir: dir})
	if err != nil {
		panic(err)
	}
	defer reopened.Close()
	doc, ok := reopened.Get("greeting")
	fmt.Println(reopened.Len(), ok, doc)
	// Output: 1 true {"text":"hello","to":["world"]}
}
