package main

import (
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"jsonlogic/internal/httpapi"
	"jsonlogic/internal/trace"
)

type restartAcc struct {
	openMS, serveMS, closeMS, firstMS []float64
	replayed                          []float64
	sum                               counterDelta // summed over restarts
	last                              counters     // the last counted restart's end state
}

// restartLoop runs sequential restarts until d has passed: Open the
// data dir, serve it, answer the first query, stop and Close. A last
// restart after the deadline measures the live heap while the store is
// open and is not counted.
func (b *bench) restartLoop(ph *phase, d time.Duration, tracer *trace.Tracer) error {
	deadline := ph.start.Add(d)
	for k := 0; ; k++ {
		last := !time.Now().Before(deadline)
		if err := b.restartOnce(ph, k, tracer, last); err != nil {
			return err
		}
		if last {
			return nil
		}
	}
}

func (b *bench) restartOnce(ph *phase, k int, tracer *trace.Tracer, last bool) error {
	t0 := time.Now()
	st, err := b.wl.Stack.open(b.dir)
	if err != nil {
		return fmt.Errorf("restart open: %w", err)
	}
	openD := time.Since(t0)
	before := snapCounters(st)
	replayed := before.st.Durability.Recovery.WALRecordsReplayed
	tracerUsed := tracer
	if tracerUsed == nil {
		tracerUsed = defaultTracer()
	}
	var h http.Handler = httpapi.NewHandler(st, httpapi.Options{Tracer: tracerUsed})
	var th *timedHandler
	if ph.traced {
		th = newTimedHandler(h)
		th.timing.Store(true)
		h = th
	}
	ts := time.Now()
	srv, err := serve(h)
	if err != nil {
		st.Close()
		return err
	}
	serveD := time.Since(ts)
	c := newClient(srv.url)
	rid := ""
	if ph.traced {
		rid = "r-" + strconv.Itoa(k)
	}
	a, firstD, qerr := c.query(b.first, rid)
	if qerr == nil {
		qerr = checkAnswer(b.first, a)
	}
	if qerr == nil && replayed != b.wl.TailRecords {
		qerr = fmt.Errorf("restart replayed %d WAL records, want %d", replayed, b.wl.TailRecords)
	}
	var heap float64
	if last {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		heap = float64(m.HeapAlloc) / 1e6
	}
	after := snapCounters(st)
	c.close()
	tc := time.Now()
	if err := srv.stop(); err != nil {
		st.Close()
		return err
	}
	if err := st.Close(); err != nil {
		return fmt.Errorf("restart close: %w", err)
	}
	closeD := time.Since(tc)
	total := time.Since(t0)
	if last {
		ph.heapMB = heap
		return nil
	}
	ph.record("restart", total, qerr)
	if qerr != nil {
		return nil
	}
	ph.mu.Lock()
	ph.addLatLocked("first", firstD)
	ph.mu.Unlock()
	ra := &ph.restart
	ra.openMS = append(ra.openMS, durMS(openD))
	ra.serveMS = append(ra.serveMS, durMS(serveD))
	ra.closeMS = append(ra.closeMS, durMS(closeD))
	ra.firstMS = append(ra.firstMS, durMS(firstD))
	ra.replayed = append(ra.replayed, float64(replayed))
	ra.sum = ra.sum.plus(diffCounters(before, after))
	ra.last = after
	if ph.traced {
		snaps := tracer.Snapshots()
		if len(snaps) == 0 || snaps[0].RequestID != rid {
			return fmt.Errorf("restart %d: no trace kept for its first answer", k)
		}
		hd, ok := th.handlerTime(rid)
		if !ok {
			return fmt.Errorf("restart %d: handler time not recorded", k)
		}
		ph.joined = append(ph.joined, joinedReq{class: "first", lat: durMS(firstD), handler: durMS(hd), layers: decompose(snaps[0]), traced: true})
	}
	return nil
}
