package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

type metricSpec struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run. Every workload reports
// every one: ops_per_s counts the workload's own operations (whole
// Open-answer-Close cycles on restart) and query_p50_ms its /query
// requests (the first answer after Open on restart). The median and
// tail of all operations are not bounded: on the sandbox this
// benchmark was built on, write-mix's p50 moved by a third and its p90
// by a factor of three between runs of the same code, because every
// PUT waits for an fsync whose latency follows the host's disk. They
// are reported per operation class among the per-layer metrics.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"query_p50_ms", "ms"},
	{"heap_live_mb", "MB"},
	{"space_amp", "ratio"},
}

// perLayer are the metrics of a traced run. Times are means per
// operation of the class they name, from the traced half of the run;
// the per-class latencies and error_ratio come from its untraced half.
// A layer a workload does not exercise reports 0.
var perLayer = []metricSpec{
	{"httpapi.query_self_ms", "ms"},
	{"httpapi.get_ms", "ms"},
	{"transport.overhead_ms", "ms"},
	{"engine.compile_ms", "ms"},
	{"engine.parse_ms", "ms"},
	{"engine.qir_compile_ms", "ms"},
	{"engine.semantic_ms", "ms"},
	{"engine.plan_cache_hit_ratio", "ratio"},
	{"engine.semantic_aliases_per_kq", "1/kq"},
	{"engine.semantic_borrowed_per_kq", "1/kq"},
	{"engine.semantic_unsat_per_kq", "1/kq"},
	{"store.plan_ms", "ms"},
	{"store.probe_ms", "ms"},
	{"store.collect_ms", "ms"},
	{"store.intersection_steps_per_query", "count"},
	{"store.candidates_per_result", "ratio"},
	{"store.planner_scan_ratio", "ratio"},
	{"store.merge_ms", "ms"},
	{"store.fanout_workers_mean", "count"},
	{"store.parallel_query_ratio", "ratio"},
	{"qir.eval_ms", "ms"},
	{"qir.docs_evaluated_per_query", "count"},
	{"store.open_ms", "ms"},
	{"store.first_answer_ms", "ms"},
	{"store.wal_records_replayed", "count"},
	{"store.segment_doc_share", "ratio"},
	{"store.snapshot_ms", "ms"},
	{"store.get_ms", "ms"},
	{"store.put_ms", "ms"},
	{"store.bulk_ms", "ms"},
	{"store.wal_appends_per_sync", "ratio"},
	{"store.wal_bytes_per_user_byte", "ratio"},
	{"store.compactions_per_run", "count"},
	{"store.wal_retries", "count"},
	{"store.snapshot_errors", "count"},
	{"store.degraded_shards", "count"},
	{"jsontree.parse_ms", "ms"},
	{"jsontree.encode_ms", "ms"},
	{"go.gc_pause_ms", "ms"},
	{"go.gc_cycles_per_kop", "1/kop"},
	{"trace.overhead_frac", "ratio"},
	{"load.late_p99_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"get_p50_ms", "ms"},
	{"put_p50_ms", "ms"},
	{"put_p99_ms", "ms"},
	{"bulk_p50_ms", "ms"},
	{"restart_p50_ms", "ms"},
	{"restart_p90_ms", "ms"},
	{"error_ratio", "ratio"},
}

var queryClasses = []string{"adhoc", "dash", "scan", "first"}

func isQueryClass(c string) bool {
	for _, q := range queryClasses {
		if q == c {
			return true
		}
	}
	return false
}

// joinedReq is one traced request with its handler time and, for a
// query, its trace's layer split.
type joinedReq struct {
	class           string
	wait            float64 // ms the open loop sent it late
	lat, handler    float64 // ms
	layers          spanLayers
	traced          bool
	getMS, encodeMS float64
}

// httpSelf is handler time outside the compile, gate and store spans:
// request decoding, response encoding and the handler's own logic.
func (j joinedReq) httpSelf() float64 {
	l := j.layers
	return j.handler - l.compile - l.gate - l.window
}

func (p *phase) join(coll *traceCollector, th *timedHandler) {
	for _, r := range p.treqs {
		h, ok := th.handlerTime(r.id)
		if !ok {
			p.fail(fmt.Errorf("traced request %s: no handler time recorded", r.id))
			continue
		}
		j := joinedReq{class: r.class, wait: durMS(r.wait), lat: durMS(r.lat), handler: durMS(h), getMS: r.getMS, encodeMS: r.encodeMS}
		if isQueryClass(r.class) {
			l, ok := coll.get(r.id)
			if !ok {
				p.fail(fmt.Errorf("traced query %s: no trace kept (%d lost from the ring)", r.id, coll.lost))
				continue
			}
			j.layers, j.traced = l, true
		}
		p.joined = append(p.joined, j)
	}
}

// opLatencies are the latencies of the workload's own operations; a
// restart's first answer is part of its restart, not an operation.
func (p *phase) opLatencies() []float64 {
	if xs, ok := p.lat["restart"]; ok {
		return xs
	}
	var all []float64
	for _, xs := range p.lat {
		all = append(all, xs...)
	}
	return all
}

func (p *phase) classLat(classes ...string) []float64 {
	var out []float64
	for _, c := range classes {
		out = append(out, p.lat[c]...)
	}
	return out
}

// slices is how many consecutive time slices a run's latencies and
// throughput are cut into. Each is computed per slice and the median
// slice is reported, so a second in which the host stalls the process
// (this sandbox's CPU and fsync speed swing by a quarter within
// seconds) does not decide a run's figure.
const slices = 5

// slice returns the phase's samples completed in slice k.
func (p *phase) slice(k int) *phase {
	lo, hi := p.dur.Seconds()*float64(k)/slices, p.dur.Seconds()*float64(k+1)/slices
	out := &phase{lat: make(map[string][]float64), dur: p.dur / slices}
	for c, ts := range p.at {
		for i, t := range ts {
			if t >= lo && (t < hi || k == slices-1) {
				out.lat[c] = append(out.lat[c], p.lat[c][i])
			}
		}
	}
	return out
}

func (b *bench) endToEndMetrics(ph *phase) map[string]float64 {
	var ops, q50 []float64
	for k := 0; k < slices; k++ {
		s := ph.slice(k)
		ops = append(ops, float64(len(s.opLatencies()))/s.dur.Seconds())
		q50 = append(q50, median(s.classLat(queryClasses...)))
	}
	return map[string]float64{
		"setup_s":      median(b.setup.totals),
		"ops_per_s":    median(ops),
		"query_p50_ms": median(q50),
		"heap_live_mb": ph.heapMB,
		"space_amp":    median(ph.spaceAmp),
	}
}

// layerMetrics computes the per-layer metrics: ph1 is the traced half
// of a traced run, ph0 its untraced half.
func (b *bench) layerMetrics(ph0, ph1 *phase) map[string]float64 {
	m := make(map[string]float64)
	var q, gets []joinedReq
	for _, j := range ph1.joined {
		switch {
		case j.traced:
			q = append(q, j)
		case j.class == "get":
			gets = append(gets, j)
		}
	}
	avg := func(xs []joinedReq, f func(joinedReq) float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		var s float64
		for _, x := range xs {
			s += f(x)
		}
		return s / float64(len(xs))
	}
	m["httpapi.query_self_ms"] = avg(q, joinedReq.httpSelf)
	m["transport.overhead_ms"] = avg(q, func(j joinedReq) float64 { return j.lat - j.handler })
	m["engine.compile_ms"] = avg(q, func(j joinedReq) float64 { return j.layers.compile })
	m["engine.parse_ms"] = avg(q, func(j joinedReq) float64 { return j.layers.parse })
	m["engine.qir_compile_ms"] = avg(q, func(j joinedReq) float64 { return j.layers.qirCompile })
	m["engine.semantic_ms"] = avg(q, func(j joinedReq) float64 { return j.layers.semantic })
	m["store.plan_ms"] = avg(q, func(j joinedReq) float64 { return j.layers.plan })
	m["store.probe_ms"] = avg(q, func(j joinedReq) float64 { return j.layers.probe })
	m["store.collect_ms"] = avg(q, func(j joinedReq) float64 { return j.layers.collect })
	m["store.merge_ms"] = avg(q, func(j joinedReq) float64 { return j.layers.merge + j.layers.shortCirc })
	m["qir.eval_ms"] = avg(q, func(j joinedReq) float64 { return j.layers.eval })
	m["httpapi.get_ms"] = avg(gets, func(j joinedReq) float64 { return j.handler })
	m["store.get_ms"] = avg(gets, func(j joinedReq) float64 { return j.getMS })
	m["jsontree.encode_ms"] = avg(gets, func(j joinedReq) float64 { return j.encodeMS })
	m["store.put_ms"] = mean(ph1.direct["store.put"])
	m["store.bulk_ms"] = mean(ph1.direct["store.bulk"])
	m["jsontree.parse_ms"] = mean(ph1.direct["jsontree.parse"])

	d := ph1.delta
	compiles := d.hits + d.misses
	m["engine.plan_cache_hit_ratio"] = ratio(d.hits, compiles)
	m["engine.semantic_aliases_per_kq"] = ratio(1000*d.aliases, compiles)
	m["engine.semantic_borrowed_per_kq"] = ratio(1000*d.borrowed, compiles)
	m["engine.semantic_unsat_per_kq"] = ratio(1000*d.unsat, compiles)
	m["store.intersection_steps_per_query"] = ratio(d.steps, d.queries)
	m["store.candidates_per_result"] = ratio(d.candidates, float64(ph1.indexedN))
	m["store.planner_scan_ratio"] = ratio(d.plannerScan, d.queries)
	m["store.fanout_workers_mean"] = ratio(d.fanSum, d.fanCount)
	m["store.parallel_query_ratio"] = ratio(d.parallel, d.parallel+d.serial)
	m["qir.docs_evaluated_per_query"] = ratio(d.candidates+d.scanned, d.queries)
	m["store.wal_appends_per_sync"] = ratio(d.walAppends, d.walSyncs)
	m["store.wal_bytes_per_user_byte"] = ratio(d.walBytes, float64(ph1.userBytes))
	m["store.compactions_per_run"] = ph0.delta.compactions + d.compactions
	m["store.wal_retries"] = ph0.delta.walRetries + d.walRetries
	m["store.snapshot_errors"] = ph0.delta.snapshotErrors + d.snapshotErrors
	if ds := ph1.after.st.Durability; ds != nil {
		m["store.degraded_shards"] = float64(ds.DegradedShards)
		m["store.segment_doc_share"] = ratio(float64(ds.SegmentDocs), float64(ph1.after.st.Docs))
	}
	m["go.gc_pause_ms"] = ratio(d.pauseNS/1e6, d.numGC)
	m["go.gc_cycles_per_kop"] = ratio(1000*d.numGC, float64(ph1.ops))

	m["store.snapshot_ms"] = median(b.setup.snapshotMS)
	if b.name == "restart" {
		m["store.open_ms"] = mean(ph1.restart.openMS)
		m["store.first_answer_ms"] = mean(ph1.restart.firstMS)
		m["store.wal_records_replayed"] = mean(ph1.restart.replayed)
	} else {
		m["store.open_ms"] = median(b.setup.openMS)
		m["store.first_answer_ms"] = median(b.setup.firstMS)
		m["store.wal_records_replayed"] = float64(b.setup.replayed)
	}

	qc := queryClasses
	m["trace.overhead_frac"] = ratio(mean(ph1.classLat(qc...))-mean(ph0.classLat(qc...)), mean(ph0.classLat(qc...)))
	m["load.late_p99_ms"] = quantile(ph0.late, 0.99)
	m["query_p99_ms"] = quantile(ph0.classLat(qc...), 0.99)
	m["get_p50_ms"] = median(ph0.lat["get"])
	m["put_p50_ms"] = median(ph0.lat["put"])
	m["put_p99_ms"] = quantile(ph0.lat["put"], 0.99)
	m["bulk_p50_ms"] = median(ph0.lat["bulk"])
	m["restart_p50_ms"] = median(ph0.lat["restart"])
	m["restart_p90_ms"] = quantile(ph0.lat["restart"], 0.9)
	m["error_ratio"] = ratio(float64(ph0.failed+ph1.failed), float64(ph0.ops+ph1.ops))
	return m
}

// reconcile prints, per operation class of the traced half, the mean
// time of each layer, the median of the per-request layer sums and the
// untraced half's median latency, with the share the layers leave
// unexplained. transport and httpapi are residuals (client latency
// minus handler time, handler time minus its spans) and store.collect
// is the store window no span covers; they are named as such so an
// unexplained remainder is never folded into a measured layer.
func (b *bench) reconcile(w io.Writer, ph0, ph1 *phase) {
	byClass := make(map[string][]joinedReq)
	for _, j := range ph1.joined {
		byClass[j.class] = append(byClass[j.class], j)
	}
	classes := make([]string, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		js := byClass[c]
		type part struct {
			name string
			f    func(joinedReq) float64
		}
		parts := []part{{"load.wait", func(j joinedReq) float64 { return j.wait }}}
		if js[0].traced {
			parts = append(parts, []part{
				{"transport(residual)", func(j joinedReq) float64 { return j.lat - j.handler }},
				{"httpapi.self(residual)", joinedReq.httpSelf},
				{"engine.compile_self", func(j joinedReq) float64 { return j.layers.compSelf }},
				{"engine.parse", func(j joinedReq) float64 { return j.layers.parse }},
				{"engine.qir_compile", func(j joinedReq) float64 { return j.layers.qirCompile }},
				{"engine.semantic", func(j joinedReq) float64 { return j.layers.semantic }},
				{"httpapi.gate", func(j joinedReq) float64 { return j.layers.gate }},
				{"store.plan", func(j joinedReq) float64 { return j.layers.plan }},
				{"store.probe", func(j joinedReq) float64 { return j.layers.probe }},
				{"qir.eval", func(j joinedReq) float64 { return j.layers.eval }},
				{"store.merge", func(j joinedReq) float64 { return j.layers.merge + j.layers.shortCirc }},
				{"store.collect(residual)", func(j joinedReq) float64 { return j.layers.collect }},
			}...)
		} else if c == "get" {
			parts = append(parts, []part{
				{"transport(residual)", func(j joinedReq) float64 { return j.lat - j.handler }},
				{"httpapi.self(residual)", func(j joinedReq) float64 { return j.handler - j.getMS - j.encodeMS }},
				{"store.get(direct)", func(j joinedReq) float64 { return j.getMS }},
				{"jsontree.encode(direct)", func(j joinedReq) float64 { return j.encodeMS }},
			}...)
		} else {
			parts = append(parts, []part{
				{"transport(residual)", func(j joinedReq) float64 { return j.lat - j.handler }},
				{"httpapi.handler", func(j joinedReq) float64 { return j.handler }},
			}...)
		}
		sums := make([]float64, len(js))
		var line []string
		for _, p := range parts {
			var tot float64
			for i, j := range js {
				v := p.f(j)
				sums[i] += v
				tot += v
			}
			line = append(line, fmt.Sprintf("%s=%.4f", p.name, tot/float64(len(js))))
		}
		e2e := median(ph0.lat[c])
		layers := median(sums)
		fmt.Fprintf(w, "# reconcile %s class=%s n=%d untraced_p50_ms=%.4f layer_sum_p50_ms=%.4f unexplained=%.1f%%\n",
			b.name, c, len(js), e2e, layers, 100*ratio(e2e-layers, e2e))
		fmt.Fprintf(w, "#   mean ms: %s\n", strings.Join(line, " "))
		switch c {
		case "put":
			fmt.Fprintf(w, "#   direct calls, mean ms: jsontree.parse=%.4f store.put=%.4f (n=%d)\n",
				mean(ph1.direct["jsontree.parse"]), mean(ph1.direct["store.put"]), len(ph1.direct["store.put"]))
		case "bulk":
			fmt.Fprintf(w, "#   direct calls, mean ms: store.bulk=%.4f (n=%d)\n", mean(ph1.direct["store.bulk"]), len(ph1.direct["store.bulk"]))
		}
	}
	if b.name == "restart" {
		ra := ph1.restart
		sums := make([]float64, len(ra.openMS))
		for i := range sums {
			sums[i] = ra.openMS[i] + ra.serveMS[i] + ra.firstMS[i] + ra.closeMS[i]
		}
		e2e := median(ph0.lat["restart"])
		fmt.Fprintf(w, "# reconcile restart class=restart n=%d untraced_p50_ms=%.4f layer_sum_p50_ms=%.4f unexplained=%.1f%%\n",
			len(sums), e2e, median(sums), 100*ratio(e2e-median(sums), e2e))
		fmt.Fprintf(w, "#   mean ms: store.open=%.4f listen=%.4f first_answer=%.4f stop+store.close=%.4f\n",
			mean(ra.openMS), mean(ra.serveMS), mean(ra.firstMS), mean(ra.closeMS))
	}
}
