package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"jsonlogic/internal/httpapi"
	"jsonlogic/internal/store"
	"jsonlogic/internal/trace"
)

// workloadConfig is everything a workload varies, recorded with every
// result.
type workloadConfig struct {
	Docs          int         `json:"docs"`
	Loop          string      `json:"loop"`
	Conns         int         `json:"conns"`
	Rate          float64     `json:"rate_per_s,omitempty"`
	Mix           string      `json:"mix"`
	TailRecords   int         `json:"wal_tail_records,omitempty"`
	SetupRepeats  int         `json:"setup_repeats"`
	Stack         stackConfig `json:"stack"`
	TracedStack   string      `json:"traced_run_tracer"`
	BulkLines     int         `json:"bulk_lines,omitempty"`
	DashboardPool int         `json:"dashboard_pool,omitempty"`
	ScanPool      int         `json:"scan_pool,omitempty"`
}

const bulkLines = 16

func workloadFor(name string, tiny bool) (workloadConfig, error) {
	c := workloadConfig{Conns: 2, Loop: "closed", SetupRepeats: 3, Stack: defaultStack(),
		TracedStack: "SlowQuery 0, SampleEvery 0, RingSize 4096 (every query kept)"}
	switch name {
	case "lookup":
		c.Docs = 50000
		c.Mix = "40% ad-hoc queries (plan-cache misses), 30% dashboard queries (hits), 30% GET"
	case "scan":
		c.Docs = 20000
		c.Mix = "100% scan-pool queries (plan-cache hits), round-robin"
	case "write-mix":
		c.Docs = 20000
		c.Loop = "open"
		c.Rate = 300
		c.BulkLines = bulkLines
		c.Mix = "55% PUT overwrite, 10% 16-line /bulk insert, 25% dashboard queries, 10% GET"
		c.Stack.SnapshotEvery = 200
	case "restart":
		c.Docs = 20000
		c.Conns = 1
		c.Loop = "sequential"
		c.TailRecords = 2000
		c.Mix = "Open, one full-scan query through the handler, Close"
		c.Stack.SnapshotEvery = -1
	default:
		return c, fmt.Errorf("unknown workload %q (want lookup, scan, write-mix or restart)", name)
	}
	if tiny {
		c.Docs = 1500
		c.SetupRepeats = 1
		c.TailRecords = min(c.TailRecords, 150)
		if c.Stack.SnapshotEvery > 0 {
			c.Stack.SnapshotEvery = min(c.Stack.SnapshotEvery, 20)
		}
		if c.Rate > 0 {
			c.Rate = 100
		}
	}
	return c, nil
}

// bench is one run: the stack, the generated inputs and the state the
// answer checks need.
type bench struct {
	name     string
	seed     uint64
	wl       workloadConfig
	corrupt  bool
	dataRoot string

	dir string
	st  *store.Store
	srv *server
	th  *timedHandler // traced runs only: the outside view of httpapi

	chunks [][]byte // set-up NDJSON, docs in seq order
	dash   []*query
	scan   []*query
	first  *query

	// write-mix state. Worker w owns the base documents s with
	// s%conns == w, so a GET is compared with the last write this
	// worker had acknowledged and nothing else.
	ver       []int32
	size      []int32
	liveBytes atomic.Int64
	nextSeq   atomic.Int64
	bulkMu    sync.Mutex
	bulkSeq   map[string]int // acknowledged bulk id → seq
	bulkAcked []string       // acknowledged bulk ids, in ack order
	pending   []pendingCheck // answer ids whose bulk insert was in flight

	setup setupResult
}

type setupResult struct {
	totals     []float64 // s
	snapshotMS []float64
	openMS     []float64
	firstMS    []float64
	replayed   int
}

// phase collects one measured interval.
type phase struct {
	traced bool
	mu     sync.Mutex
	lat    map[string][]float64 // class → latency ms
	at     map[string][]float64 // class → completion time, s after start
	late   []float64            // open loop: send time minus due time, ms
	ops    int
	failed int
	errs   []string
	start  time.Time
	dur    time.Duration

	treqs     []tracedReq
	joined    []joinedReq
	direct    map[string][]float64 // directly timed calls, ms
	userBytes int64
	indexedN  int64 // results returned by indexed queries
	before    counters
	after     counters
	delta     counterDelta
	heapMB    float64
	spaceAmp  []float64
	restart   restartAcc
}

type tracedReq struct {
	id, class string
	wait, lat time.Duration // wait: open-loop send time minus due time
	getMS     float64       // GET: direct store.Get
	encodeMS  float64       // GET: direct WriteTo
}

func newPhase(traced bool) *phase {
	return &phase{traced: traced, lat: make(map[string][]float64), at: make(map[string][]float64), direct: make(map[string][]float64)}
}

func (p *phase) record(class string, lat time.Duration, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ops++
	if err != nil {
		p.failLocked(err)
		return
	}
	p.addLatLocked(class, lat)
}

func (p *phase) addLatLocked(class string, lat time.Duration) {
	p.lat[class] = append(p.lat[class], durMS(lat))
	p.at[class] = append(p.at[class], time.Since(p.start).Seconds())
}

// fail counts a wrong answer found after its operation was recorded.
func (p *phase) fail(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.failLocked(err)
}

func (p *phase) failLocked(err error) {
	p.failed++
	if len(p.errs) < 5 {
		p.errs = append(p.errs, err.Error())
	}
}

func (p *phase) addDirect(name string, d time.Duration) {
	p.mu.Lock()
	p.direct[name] = append(p.direct[name], durMS(d))
	p.mu.Unlock()
}

func (p *phase) addTraced(r tracedReq) {
	p.mu.Lock()
	p.treqs = append(p.treqs, r)
	p.mu.Unlock()
}

type worker struct {
	id   int
	c    *client
	r    *rand.Rand
	k    int
	ph   *phase
	wait time.Duration // open loop: how late the current request was sent
}

func (w *worker) reqID() string {
	if !w.ph.traced {
		return ""
	}
	return "w" + strconv.Itoa(w.id) + "-" + strconv.Itoa(w.k)
}

// ---- inputs and set-up ----

func (b *bench) generate() error {
	n := b.wl.Docs
	const chunk = 5000
	for lo := 0; lo < n; lo += chunk {
		var buf bytes.Buffer
		for s := lo; s < min(lo+chunk, n); s++ {
			buf.WriteString(docText(b.seed, s, 0))
			buf.WriteByte('\n')
		}
		b.chunks = append(b.chunks, buf.Bytes())
		b.liveBytes.Add(int64(buf.Len() - (min(lo+chunk, n) - lo)))
	}
	b.first = firstQuery(n)
	switch b.name {
	case "lookup", "write-mix":
		b.dash = dashboardPool(b.seed)
		for _, q := range b.dash {
			q.fillWant(n)
		}
		if b.corrupt {
			// Self-test: one expected answer is deliberately wrong, and the
			// run must report it.
			b.dash[0].want = append(b.dash[0].want[1:], "d99999999")
		}
	case "scan":
		var err error
		if b.scan, err = scanQueries(b.seed, n); err != nil {
			return err
		}
	}
	for i := 0; i < b.wl.TailRecords; i++ {
		s := tailDoc(i, n)
		b.liveBytes.Add(int64(len(docText(b.seed, s, 1)) - len(docText(b.seed, s, 0))))
	}
	if b.name == "write-mix" {
		b.ver = make([]int32, n)
		b.size = make([]int32, n)
		for s := 0; s < n; s++ {
			b.size[s] = int32(len(docText(b.seed, s, 0)))
		}
		b.bulkSeq = make(map[string]int)
		b.nextSeq.Store(int64(n))
	}
	return nil
}

// setupOnce builds the data directory and stands the stack up: bulk
// load, a segment build of every shard, Close, then the production
// start path (Open recovering from the segments, the listener, one
// full-scan answer that resolves every segment document) and a warm
// pass over the workload's fixed query pool. Restart stops after
// writing its WAL tail; its operations do the start path.
func (b *bench) setupOnce(traceRun bool) error {
	t0 := time.Now()
	dir, err := os.MkdirTemp(b.dataRoot, "data-")
	if err != nil {
		return err
	}
	b.dir = dir
	st, err := b.wl.Stack.open(dir)
	if err != nil {
		return fmt.Errorf("open empty store: %w", err)
	}
	for i, c := range b.chunks {
		res, err := st.BulkNDJSON(bytes.NewReader(c))
		if err != nil || len(res.Errors) > 0 {
			st.Close()
			return fmt.Errorf("bulk load chunk %d: %v %v", i, err, res.Errors)
		}
		if want := docID(i * 5000); res.IDs[0] != want {
			st.Close()
			return fmt.Errorf("bulk load assigned %s, want %s", res.IDs[0], want)
		}
	}
	ts := time.Now()
	if err := st.Snapshot(); err != nil {
		st.Close()
		return fmt.Errorf("snapshot: %w", err)
	}
	b.setup.snapshotMS = append(b.setup.snapshotMS, durMS(time.Since(ts)))
	if b.name == "restart" {
		if err := b.writeTail(st); err != nil {
			st.Close()
			return err
		}
	}
	if err := st.Close(); err != nil {
		return fmt.Errorf("close after load: %w", err)
	}
	if b.name == "restart" {
		b.setup.totals = append(b.setup.totals, time.Since(t0).Seconds())
		return nil
	}
	to := time.Now()
	if b.st, err = b.wl.Stack.open(dir); err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	b.setup.openMS = append(b.setup.openMS, durMS(time.Since(to)))
	b.setup.replayed = b.st.Stats().Durability.Recovery.WALRecordsReplayed
	var h http.Handler = httpapi.NewHandler(b.st, httpapi.Options{Tracer: defaultTracer()})
	if traceRun {
		b.th = newTimedHandler(h)
		h = b.th
	}
	if b.srv, err = serve(h); err != nil {
		return err
	}
	c := newClient(b.srv.url)
	defer c.close()
	tf := time.Now()
	a, _, err := c.query(b.first, "")
	if err != nil {
		return fmt.Errorf("first answer: %w", err)
	}
	if err := checkAnswer(b.first, a); err != nil {
		return fmt.Errorf("first answer: %w", err)
	}
	b.setup.firstMS = append(b.setup.firstMS, durMS(time.Since(tf)))
	for _, q := range append(append([]*query(nil), b.dash...), b.scan...) {
		if _, _, err := c.query(q, ""); err != nil {
			return fmt.Errorf("warm: %w", err)
		}
	}
	b.setup.totals = append(b.setup.totals, time.Since(t0).Seconds())
	return nil
}

// writeTail overwrites TailRecords documents after the segment build,
// leaving them in the WAL for every restart to replay. Eight writers
// share the group commit.
func (b *bench) writeTail(st *store.Store) error {
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < b.wl.TailRecords; i += 8 {
				s := tailDoc(i, b.wl.Docs)
				if err := st.Put(docID(s), docText(b.seed, s, 1)); err != nil {
					errs <- fmt.Errorf("tail put: %w", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// tailDoc is the document the i-th WAL-tail write overwrites; 7919 is
// prime, so the first n writes hit distinct documents.
func tailDoc(i, n int) int { return i * 7919 % n }

// teardown stops the server and closes and deletes the store.
func (b *bench) teardown() error {
	var err error
	if b.srv != nil {
		err = b.srv.stop()
		b.srv = nil
	}
	if b.st != nil {
		if cerr := b.st.Close(); cerr != nil && err == nil {
			err = cerr
		}
		b.st = nil
	}
	if b.dir != "" {
		if rerr := os.RemoveAll(b.dir); rerr != nil && err == nil {
			err = rerr
		}
		b.dir = ""
	}
	return err
}

// setupAll runs set-up SetupRepeats times and keeps the last stack.
func (b *bench) setupAll(traceRun bool) error {
	for i := 0; i < b.wl.SetupRepeats; i++ {
		if i > 0 {
			if err := b.teardown(); err != nil {
				return err
			}
			runtime.GC()
		}
		if err := b.setupOnce(traceRun); err != nil {
			return err
		}
	}
	b.chunks = nil // the load input is not part of the measured heap
	return nil
}

// ---- measured phases ----

// measure runs the workload for d. A traced phase serves a handler
// whose tracer keeps every query and times each request's handler.
func (b *bench) measure(d time.Duration, traced bool) (*phase, error) {
	ph := newPhase(traced)
	var coll *traceCollector
	var tracer *trace.Tracer
	if traced {
		tracer = trace.New(trace.Options{SlowQuery: 0, RingSize: 4096})
		if b.th != nil {
			b.th.set(httpapi.NewHandler(b.st, httpapi.Options{Tracer: tracer}))
			b.th.timing.Store(true)
			coll = newTraceCollector(tracer)
		}
	}
	ph.before = snapCounters(b.st)
	ph.start = time.Now()
	var err error
	switch b.name {
	case "lookup":
		b.closedLoop(ph, d, b.lookupOp)
	case "scan":
		b.closedLoop(ph, d, b.scanOp)
	case "write-mix":
		b.openLoop(ph, d)
	case "restart":
		err = b.restartLoop(ph, d, tracer)
	}
	ph.dur = time.Since(ph.start)
	if coll != nil {
		coll.finish()
		ph.join(coll, b.th)
		b.th.timing.Store(false)
		b.th.set(httpapi.NewHandler(b.st, httpapi.Options{Tracer: defaultTracer()}))
	}
	if err != nil {
		return nil, err
	}
	if b.name == "write-mix" {
		b.checkDeferred(ph)
	}
	ph.after = snapCounters(b.st)
	ph.delta = diffCounters(ph.before, ph.after)
	if b.name == "restart" {
		ph.delta = ph.restart.sum
		ph.after = ph.restart.last
	}
	if b.st != nil {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		ph.heapMB = float64(m.HeapAlloc) / 1e6
	}
	amp, err := b.spaceAmp()
	if err != nil {
		return nil, err
	}
	ph.spaceAmp = append(ph.spaceAmp, amp)
	return ph, nil
}

// An operation returns its class and its latency: the HTTP exchange up
// to the last response byte, or the direct call, without the answer
// check.
type operation func(w *worker) (class string, lat time.Duration, err error)

func (b *bench) closedLoop(ph *phase, d time.Duration, op operation) {
	deadline := ph.start.Add(d)
	var wg sync.WaitGroup
	for i := 0; i < b.wl.Conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := b.newWorker(i, ph)
			defer w.c.close()
			for time.Now().Before(deadline) {
				class, lat, err := op(w)
				ph.record(class, lat, err)
				w.k++
			}
		}(i)
	}
	wg.Wait()
}

// newWorker gives worker i its own connection and an operation stream
// drawn from the seed, the worker and whether the phase is traced.
func (b *bench) newWorker(i int, ph *phase) *worker {
	stream := uint64(i) << 1
	if ph.traced {
		stream |= 1
	}
	return &worker{id: i, c: newClient(b.srv.url), r: rand.New(rand.NewPCG(b.seed, stream)), ph: ph}
}

// checkedQuery sends q, checks the answer against q.want/wantSel and, in a
// traced phase, queues the request for the join with its trace.
func (b *bench) checkedQuery(w *worker, q *query) (string, time.Duration, error) {
	id := w.reqID()
	a, lat, err := w.c.query(q, id)
	if err != nil {
		return q.class, lat, err
	}
	if w.ph.traced {
		w.ph.addTraced(tracedReq{id: id, class: q.class, wait: w.wait, lat: lat})
	}
	if a.indexed {
		atomic.AddInt64(&w.ph.indexedN, int64(len(a.ids)+len(a.sel)))
	}
	return q.class, lat, checkAnswer(q, a)
}

func (b *bench) lookupOp(w *worker) (string, time.Duration, error) {
	n := b.wl.Docs
	switch x := w.r.IntN(100); {
	case x < 40:
		return b.checkedQuery(w, adhocQuery(w.r.IntN(n), w.r.IntN(adhocForms)))
	case x < 70:
		return b.checkedQuery(w, b.dash[w.r.IntN(len(b.dash))])
	default:
		s := w.r.IntN(n)
		lat, err := b.get(w, s, docText(b.seed, s, 0))
		return "get", lat, err
	}
}

// scanOp walks the pool round-robin from a per-worker offset: a run
// completes only a few hundred scans, and a random choice would let
// the share of cheap and costly texts, and with it the median, drift
// from run to run.
func (b *bench) scanOp(w *worker) (string, time.Duration, error) {
	return b.checkedQuery(w, b.scan[(w.k+w.id*len(b.scan)/b.wl.Conns)%len(b.scan)])
}

// get fetches document s and compares it byte for byte with want. A
// traced GET also times the two library calls the handler makes,
// store.Get and Tree.WriteTo, directly on the same document.
func (b *bench) get(w *worker, s int, want string) (time.Duration, error) {
	id := w.reqID()
	t0 := time.Now()
	status, body, err := w.c.do(http.MethodGet, "/docs/"+docID(s), id, nil)
	lat := time.Since(t0)
	if err != nil {
		return lat, err
	}
	if status != http.StatusOK || string(body) != want+"\n" {
		return lat, fmt.Errorf("GET %s: status %d, body %.80q, want %.80q", docID(s), status, body, want)
	}
	if w.ph.traced {
		tg := time.Now()
		t, ok := b.st.Get(docID(s))
		getD := time.Since(tg)
		if !ok {
			return lat, fmt.Errorf("store.Get %s: missing", docID(s))
		}
		te := time.Now()
		if _, err := t.WriteTo(io.Discard); err != nil {
			return lat, err
		}
		w.ph.addTraced(tracedReq{id: id, class: "get", wait: w.wait, lat: lat, getMS: durMS(getD), encodeMS: durMS(time.Since(te))})
	}
	return lat, nil
}
