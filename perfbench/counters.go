package main

import (
	"runtime"

	"jsonlogic/internal/engine"
	"jsonlogic/internal/store"
)

// counters is a point-in-time read of the store's Stats, the engine's
// CacheStats, the fan-out histogram and the Go runtime.
type counters struct {
	st       store.Stats
	cs       engine.CacheStats
	fanSum   uint64
	fanCount uint64
	numGC    uint64
	pauseNS  uint64
}

func snapCounters(st *store.Store) counters {
	var c counters
	if st != nil {
		c.st = st.Stats()
		c.cs = st.Engine().CacheStats()
		_, _, fan := st.MetricsHistograms()
		c.fanSum, c.fanCount = fan.Sum(), fan.Count()
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	c.numGC, c.pauseNS = uint64(m.NumGC), m.PauseTotalNs
	return c
}

// counterDelta is what happened between two reads.
type counterDelta struct {
	queries, hits, misses, aliases, borrowed, unsat               float64
	steps, candidates, scanned, plannerScan, parallel, serial     float64
	fanSum, fanCount, walAppends, walSyncs, walBytes, compactions float64
	walRetries, snapshotErrors, numGC, pauseNS                    float64
}

func diffCounters(a, b counters) counterDelta {
	qa, qb := a.st.Queries, b.st.Queries
	d := counterDelta{
		queries: float64((qb.FindIndexed + qb.FindScan + qb.SelectIndexed + qb.SelectScan + qb.SemanticShortCircuits) -
			(qa.FindIndexed + qa.FindScan + qa.SelectIndexed + qa.SelectScan + qa.SemanticShortCircuits)),
		hits:        float64(b.cs.Hits - a.cs.Hits),
		misses:      float64(b.cs.Misses - a.cs.Misses),
		aliases:     float64(b.cs.SemanticAliases - a.cs.SemanticAliases),
		borrowed:    float64(b.cs.SemanticBorrowed - a.cs.SemanticBorrowed),
		unsat:       float64(b.cs.SemanticUnsat - a.cs.SemanticUnsat),
		steps:       float64(qb.IntersectionSteps - qa.IntersectionSteps),
		candidates:  float64(qb.CandidateDocs - qa.CandidateDocs),
		scanned:     float64(qb.ScannedDocs - qa.ScannedDocs),
		plannerScan: float64(qb.PlannerScan - qa.PlannerScan),
		parallel:    float64(qb.ParallelQueries - qa.ParallelQueries),
		serial:      float64(qb.SerialQueries - qa.SerialQueries),
		fanSum:      float64(b.fanSum - a.fanSum),
		fanCount:    float64(b.fanCount - a.fanCount),
		numGC:       float64(b.numGC - a.numGC),
		pauseNS:     float64(b.pauseNS - a.pauseNS),
	}
	if da, db := a.st.Durability, b.st.Durability; da != nil && db != nil {
		d.walAppends = float64(db.WALAppends - da.WALAppends)
		d.walSyncs = float64(db.WALSyncs - da.WALSyncs)
		d.walBytes = float64(db.WALBytes - da.WALBytes)
		d.compactions = float64(db.Compactions - da.Compactions)
		d.walRetries = float64(db.WALRetries - da.WALRetries)
		d.snapshotErrors = float64(db.SnapshotErrors - da.SnapshotErrors)
	}
	return d
}

func (d counterDelta) plus(e counterDelta) counterDelta {
	return counterDelta{
		d.queries + e.queries, d.hits + e.hits, d.misses + e.misses, d.aliases + e.aliases, d.borrowed + e.borrowed, d.unsat + e.unsat,
		d.steps + e.steps, d.candidates + e.candidates, d.scanned + e.scanned, d.plannerScan + e.plannerScan, d.parallel + e.parallel, d.serial + e.serial,
		d.fanSum + e.fanSum, d.fanCount + e.fanCount, d.walAppends + e.walAppends, d.walSyncs + e.walSyncs, d.walBytes + e.walBytes, d.compactions + e.compactions,
		d.walRetries + e.walRetries, d.snapshotErrors + e.snapshotErrors, d.numGC + e.numGC, d.pauseNS + e.pauseNS,
	}
}
