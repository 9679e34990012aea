package main

import (
	"sort"
	"sync"
	"time"

	"jsonlogic/internal/trace"
)

// spanLayers is one traced query's wall time split by layer, in ms.
// The store's spans overlap (per-shard probe and eval run on several
// workers), so its window, from the first store span's start to the
// last one's end, is partitioned instant by instant: each instant goes
// to the highest-priority span covering it (eval, then probe, plan,
// merge, the semantic short-circuit) and an instant no span covers
// goes to collect, the candidate collection and scheduling the store
// does between spans (on a scan, every segment document's resolve).
// The parts add up to the window exactly.
type spanLayers struct {
	compile    float64 // whole compile span
	compSelf   float64 // compile minus its children
	parse      float64
	qirCompile float64
	semantic   float64 // the engine's semantic pass, inside compile
	gate       float64
	plan       float64
	probe      float64
	eval       float64
	merge      float64
	shortCirc  float64 // the store's semantic short-circuit
	collect    float64
	window     float64
}

const (
	catEval = iota
	catProbe
	catPlan
	catMerge
	catShort
	numCats
)

type interval struct {
	start, end int64
	cat        int
}

func decompose(s *trace.Snapshot) spanLayers {
	var l spanLayers
	if len(s.Spans) == 0 {
		return l
	}
	var ivs []interval
	for _, c := range s.Spans[0].Children {
		switch c.Name {
		case "compile":
			l.compile += ms(c.DurationNS)
			covered := int64(0)
			for _, g := range c.Children {
				covered += g.DurationNS
				switch g.Name {
				case "parse":
					l.parse += ms(g.DurationNS)
				case "qir_compile":
					l.qirCompile += ms(g.DurationNS)
				case "semantic":
					l.semantic += ms(g.DurationNS)
				}
			}
			l.compSelf += ms(c.DurationNS - covered)
		case "gate":
			l.gate += ms(c.DurationNS)
		case "eval":
			ivs = append(ivs, interval{c.StartNS, c.StartNS + c.DurationNS, catEval})
		case "probe":
			ivs = append(ivs, interval{c.StartNS, c.StartNS + c.DurationNS, catProbe})
		case "plan":
			ivs = append(ivs, interval{c.StartNS, c.StartNS + c.DurationNS, catPlan})
		case "merge":
			ivs = append(ivs, interval{c.StartNS, c.StartNS + c.DurationNS, catMerge})
		case "semantic":
			ivs = append(ivs, interval{c.StartNS, c.StartNS + c.DurationNS, catShort})
		}
	}
	if len(ivs) == 0 {
		return l
	}
	var cuts []int64
	lo, hi := ivs[0].start, ivs[0].end
	for _, iv := range ivs {
		cuts = append(cuts, iv.start, iv.end)
		lo, hi = min(lo, iv.start), max(hi, iv.end)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	var per [numCats]int64
	var gap int64
	for i := 0; i+1 < len(cuts); i++ {
		a, b := cuts[i], cuts[i+1]
		if a == b {
			continue
		}
		best := numCats
		for _, iv := range ivs {
			if iv.start <= a && iv.end >= b && iv.cat < best {
				best = iv.cat
			}
		}
		if best == numCats {
			gap += b - a
		} else {
			per[best] += b - a
		}
	}
	l.eval, l.probe, l.plan, l.merge, l.shortCirc = ms(per[catEval]), ms(per[catProbe]), ms(per[catPlan]), ms(per[catMerge]), ms(per[catShort])
	l.collect = ms(gap)
	l.window = ms(hi - lo)
	return l
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

func durMS(d time.Duration) float64 { return float64(d) / 1e6 }

// traceCollector drains a tracer's ring while a traced phase runs and
// keeps each kept query's layer split under its X-Request-ID. The ring
// is bounded, so it polls; a gap in the ring's sequence numbers is
// counted as lost traces rather than silently ignored.
type traceCollector struct {
	tr     *trace.Tracer
	mu     sync.Mutex
	byID   map[string]spanLayers
	lastID uint64
	lost   uint64
	stop   chan struct{}
	done   chan struct{}
}

func newTraceCollector(tr *trace.Tracer) *traceCollector {
	c := &traceCollector{tr: tr, byID: make(map[string]spanLayers), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-c.stop:
				c.drain()
				return
			case <-tick.C:
				c.drain()
			}
		}
	}()
	return c
}

func (c *traceCollector) drain() {
	snaps := c.tr.Snapshots()
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].ID < snaps[j].ID })
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range snaps {
		if s.ID <= c.lastID {
			continue
		}
		if s.ID > c.lastID+1 {
			c.lost += s.ID - c.lastID - 1
		}
		c.lastID = s.ID
		c.byID[s.RequestID] = decompose(s)
	}
}

// finish stops the poller after a last drain and waits for it.
func (c *traceCollector) finish() {
	close(c.stop)
	<-c.done
}

func (c *traceCollector) get(id string) (spanLayers, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	l, ok := c.byID[id]
	return l, ok
}
