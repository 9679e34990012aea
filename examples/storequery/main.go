// Example storequery: the storage tier end to end — bulk-load a
// collection into the sharded store, then answer the same query three
// ways (mongo find, JSONPath, JNL), comparing the indexed path against
// a full scan. See README.md next to this file for the equivalent
// walkthrough against a running jsonstored daemon with curl.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"strings"

	"jsonlogic/internal/engine"
	"jsonlogic/internal/store"
)

func main() {
	st := store.New(store.Options{Shards: 8})
	eng := st.Engine()

	// Bulk-ingest an NDJSON inventory; each line becomes one document.
	var ndjson strings.Builder
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&ndjson, `{"sku":"p%04d","price":%d,"stock":{"warehouse":%d},"tags":["t%d"]}`+"\n",
			i, i%50, i%7, i%13)
	}
	res, err := st.BulkNDJSON(strings.NewReader(ndjson.String()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ingested %d documents into %d shards\n", len(res.IDs), st.NumShards())

	// One query, three front ends. Each compiles once into the shared
	// plan cache; the store prunes candidates through the path index.
	queries := []struct {
		lang engine.Language
		src  string
	}{
		{engine.LangMongoFind, `{"price":42,"stock.warehouse":{"$lt":3}}`},
		{engine.LangJSONPath, `$.tags[0]`},
		{engine.LangJNL, `eq(/price, 42)`},
	}
	for _, q := range queries {
		p, err := eng.Compile(q.lang, q.src)
		if err != nil {
			log.Fatal(err)
		}
		ids, indexed, err := st.Find(context.Background(), p, nil)
		if err != nil {
			log.Fatal(err)
		}
		scan, err := st.FindScan(p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %-45s -> %d docs (scan agrees: %v, indexed: %v)\n",
			p.Language(), q.src, len(ids), len(ids) == len(scan), indexed)
	}

	// Node selection through the index: JSONPath is root-anchored, so
	// its prefix prunes documents before any evaluation.
	p := engine.MustCompile(engine.LangJSONPath, `$.stock.warehouse`)
	sels, _, err := st.Select(context.Background(), p, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("selected warehouse nodes in %d documents\n", len(sels))

	stats := st.Stats()
	fmt.Printf("index: %d terms, %d postings; queries: %d indexed / %d scans; evaluated %d candidates vs %d scanned docs\n",
		stats.Terms, stats.Entries,
		stats.Queries.FindIndexed+stats.Queries.SelectIndexed,
		stats.Queries.FindScan+stats.Queries.SelectScan,
		stats.Queries.CandidateDocs, stats.Queries.ScannedDocs)

	// Durability: the same store API backed by a write-ahead log. Every
	// put is logged and fsynced before it returns; closing and
	// reopening the directory recovers the collection and rebuilds the
	// index. (The daemon equivalent is -data-dir; see the kill-and-
	// recover walkthrough in README.md.)
	dir, err := os.MkdirTemp("", "storequery-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	durable, err := store.Open(store.Options{Shards: 4, DataDir: dir, Fsync: store.FsyncAlways})
	if err != nil {
		log.Fatal(err)
	}
	if err := durable.Put("hot", `{"sku":"p9999","price":1}`); err != nil {
		log.Fatal(err)
	}
	if err := durable.Close(); err != nil {
		log.Fatal(err)
	}
	reopened, err := store.Open(store.Options{DataDir: dir})
	if err != nil {
		log.Fatal(err)
	}
	defer reopened.Close()
	rec := reopened.Stats().Durability.Recovery
	_, ok := reopened.Get("hot")
	fmt.Printf("durable reopen: recovered %d doc(s) (found %q: %v, %d WAL records replayed)\n",
		reopened.Len(), "hot", ok, rec.WALRecordsReplayed)
}
