package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"jsonlogic/internal/jsontree"
)

// openLoop sends requests on a fixed schedule: worker w owns arrivals
// w, w+conns, …, due at k/rate after the start, and each latency is
// measured from the due time, so a stall delays every later request
// on that connection and shows in the latency instead of slowing the
// schedule down.
func (b *bench) openLoop(ph *phase, d time.Duration) {
	conns := b.wl.Conns
	interval := time.Duration(float64(time.Second) / b.wl.Rate)
	var wg sync.WaitGroup
	stopSampler := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		tick := time.NewTicker(500 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSampler:
				return
			case <-tick.C:
				if amp, err := b.spaceAmp(); err == nil {
					ph.mu.Lock()
					ph.spaceAmp = append(ph.spaceAmp, amp)
					ph.mu.Unlock()
				}
			}
		}
	}()
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := b.newWorker(i, ph)
			defer w.c.close()
			for k := i; ; k += conns {
				due := ph.start.Add(time.Duration(k) * interval)
				if due.Sub(ph.start) >= d {
					return
				}
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				w.wait = time.Since(due)
				class, lat, err := b.writeMixOp(w)
				ph.record(class, w.wait+lat, err)
				ph.mu.Lock()
				ph.late = append(ph.late, durMS(w.wait))
				ph.mu.Unlock()
				w.k++
			}
		}(i)
	}
	wg.Wait()
	close(stopSampler)
	<-samplerDone
}

func (b *bench) writeMixOp(w *worker) (string, time.Duration, error) {
	switch x := w.r.IntN(100); {
	case x < 55:
		lat, err := b.put(w)
		return "put", lat, err
	case x < 65:
		lat, err := b.bulk(w)
		return "bulk", lat, err
	case x < 90:
		lat, err := b.dashWhileWriting(w, b.dash[w.r.IntN(len(b.dash))])
		return "dash", lat, err
	default:
		s := b.ownDoc(w)
		lat, err := b.get(w, s, docText(b.seed, s, int(b.ver[s])))
		return "get", lat, err
	}
}

// ownDoc picks a base document this worker owns.
func (b *bench) ownDoc(w *worker) int {
	conns := b.wl.Conns
	return w.id + conns*w.r.IntN((b.wl.Docs-w.id+conns-1)/conns)
}

// put overwrites one owned document with its next version. Every
// second PUT of a traced phase calls jsontree.Parse and store.PutTree
// directly instead, timing each.
func (b *bench) put(w *worker) (time.Duration, error) {
	s := b.ownDoc(w)
	v := int(b.ver[s]) + 1
	doc := docText(b.seed, s, v)
	id := docID(s)
	var lat time.Duration
	if w.ph.traced && w.k%2 == 1 {
		tp := time.Now()
		t, err := jsontree.Parse(doc)
		if err != nil {
			return time.Since(tp), err
		}
		tw := time.Now()
		if err := b.st.PutTree(id, t); err != nil {
			return time.Since(tp), err
		}
		w.ph.addDirect("jsontree.parse", tw.Sub(tp))
		w.ph.addDirect("store.put", time.Since(tw))
		lat = time.Since(tp)
	} else {
		rid := w.reqID()
		t0 := time.Now()
		status, body, err := w.c.do(http.MethodPut, "/docs/"+id, rid, []byte(doc))
		lat = time.Since(t0)
		if err != nil {
			return lat, err
		}
		if status != http.StatusOK {
			return lat, fmt.Errorf("PUT %s: status %d: %s", id, status, body)
		}
		if w.ph.traced {
			w.ph.addTraced(tracedReq{id: rid, class: "put", wait: w.wait, lat: lat})
		}
	}
	b.liveBytes.Add(int64(len(doc)) - int64(b.size[s]))
	b.ver[s], b.size[s] = int32(v), int32(len(doc))
	atomic.AddInt64(&w.ph.userBytes, int64(len(doc)))
	return lat, nil
}

// bulk inserts 16 new documents. Bulk ingest assigns fresh ids, so
// the response's ids are mapped back to the sequence numbers sent.
func (b *bench) bulk(w *worker) (time.Duration, error) {
	first := int(b.nextSeq.Add(bulkLines)) - bulkLines
	var buf bytes.Buffer
	for s := first; s < first+bulkLines; s++ {
		buf.WriteString(docText(b.seed, s, 0))
		buf.WriteByte('\n')
	}
	var ids []string
	var lat time.Duration
	if w.ph.traced && w.k%2 == 1 {
		t0 := time.Now()
		res, err := b.st.BulkNDJSON(bytes.NewReader(buf.Bytes()))
		lat = time.Since(t0)
		if err != nil || len(res.Errors) > 0 {
			return lat, fmt.Errorf("store.BulkNDJSON: %v %v", err, res.Errors)
		}
		w.ph.addDirect("store.bulk", lat)
		ids = res.IDs
	} else {
		rid := w.reqID()
		t0 := time.Now()
		status, body, err := w.c.do(http.MethodPost, "/bulk", rid, buf.Bytes())
		lat = time.Since(t0)
		if err != nil {
			return lat, err
		}
		var r struct {
			IDs    []string          `json:"ids"`
			Errors []json.RawMessage `json:"errors"`
		}
		if status != http.StatusOK || json.Unmarshal(body, &r) != nil || len(r.Errors) > 0 {
			return lat, fmt.Errorf("POST /bulk: status %d: %.200s", status, body)
		}
		ids = r.IDs
		if w.ph.traced {
			w.ph.addTraced(tracedReq{id: rid, class: "bulk", wait: w.wait, lat: lat})
		}
	}
	if len(ids) != bulkLines {
		return lat, fmt.Errorf("bulk inserted %d documents, want %d", len(ids), bulkLines)
	}
	b.bulkMu.Lock()
	for i, id := range ids {
		b.bulkSeq[id] = first + i
		b.bulkAcked = append(b.bulkAcked, id)
	}
	b.bulkMu.Unlock()
	b.liveBytes.Add(int64(buf.Len() - bulkLines))
	atomic.AddInt64(&w.ph.userBytes, int64(buf.Len()-bulkLines))
	return lat, nil
}

// dashWhileWriting checks a dashboard answer while bulk inserts run on
// the other connection. Overwrites keep headers, so the base answer is
// fixed; the answer must also hold every matching bulk document
// acknowledged before the query was sent, and any other id must be a
// bulk document that matches, checked once its insert is acknowledged.
func (b *bench) dashWhileWriting(w *worker, q *query) (time.Duration, error) {
	b.bulkMu.Lock()
	acked := len(b.bulkAcked)
	b.bulkMu.Unlock()
	id := w.reqID()
	a, lat, err := w.c.query(q, id)
	if err != nil {
		return lat, err
	}
	if w.ph.traced {
		w.ph.addTraced(tracedReq{id: id, class: "dash", wait: w.wait, lat: lat})
	}
	if a.indexed {
		atomic.AddInt64(&w.ph.indexedN, int64(len(a.ids)))
	}
	return lat, b.checkWhileWriting(q, a, acked)
}

// checkWhileWriting checks a dashboard answer given the number of bulk
// inserts acknowledged before the query was sent.
func (b *bench) checkWhileWriting(q *query, a answer, acked int) error {
	got := make(map[string]bool, len(a.ids))
	for _, x := range a.ids {
		got[x] = true
	}
	for _, x := range q.want {
		if !got[x] {
			return fmt.Errorf("%s %q: missing base document %s", q.lang, q.text, x)
		}
	}
	b.bulkMu.Lock()
	defer b.bulkMu.Unlock()
	for _, x := range b.bulkAcked[:acked] {
		if q.match(b.bulkSeq[x]) && !got[x] {
			return fmt.Errorf("%s %q: missing acknowledged bulk document %s", q.lang, q.text, x)
		}
	}
	for _, x := range a.ids {
		if n, err := strconv.Atoi(strings.TrimPrefix(x, "d")); err == nil && n < b.wl.Docs {
			if !q.match(n) {
				return fmt.Errorf("%s %q: document %s does not match", q.lang, q.text, x)
			}
			continue
		}
		if s, ok := b.bulkSeq[x]; ok {
			if !q.match(s) {
				return fmt.Errorf("%s %q: bulk document %s does not match", q.lang, q.text, x)
			}
			continue
		}
		b.pending = append(b.pending, pendingCheck{q, x})
	}
	return nil
}

type pendingCheck struct {
	q  *query
	id string
}

// checkDeferred settles the ids an answer returned while their bulk
// insert was still in flight.
func (b *bench) checkDeferred(ph *phase) {
	b.bulkMu.Lock()
	defer b.bulkMu.Unlock()
	for _, p := range b.pending {
		s, ok := b.bulkSeq[p.id]
		switch {
		case !ok:
			ph.fail(fmt.Errorf("%s %q: returned %s, which no acknowledged write created", p.q.lang, p.q.text, p.id))
		case !p.q.match(s):
			ph.fail(fmt.Errorf("%s %q: bulk document %s does not match", p.q.lang, p.q.text, p.id))
		}
	}
	b.pending = nil
}

// spaceAmp is data-dir bytes over live user JSON bytes.
func (b *bench) spaceAmp() (float64, error) {
	var disk int64
	err := filepath.WalkDir(b.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if os.IsNotExist(err) {
				return nil // a file compaction removed mid-walk
			}
			return err
		}
		if !d.IsDir() {
			if info, err := d.Info(); err == nil {
				disk += info.Size()
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return float64(disk) / float64(b.liveBytes.Load()), nil
}
