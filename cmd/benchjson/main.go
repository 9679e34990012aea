// Command benchjson converts `go test -bench` output on stdin into a
// stable JSON record of the performance trajectory: one entry per
// benchmark with ns/op, B/op and allocs/op. The Makefile's bench-json
// target pipes the suite through it to produce BENCH_<n>.json files
// committed per PR, so regressions show up in review as diffs.
//
// With -compare, benchjson instead diffs two such files: it reports
// per-benchmark ns/op and allocs/op deltas for every name present in
// both, lists additions and removals, and exits non-zero when a
// benchmark on the hot-path allowlist regresses by more than
// -threshold (default 25%) in either metric. `make bench-diff` wires
// this as the per-PR performance gate.
//
// Usage:
//
//	go test -run xxx -bench . -benchmem ./... | benchjson -out BENCH_2.json
//	benchjson -compare BENCH_4.json BENCH_5.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// Entry is one benchmark result.
type Entry struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  *int64  `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64  `json:"allocs_per_op,omitempty"`
	MBPerSec    float64 `json:"mb_per_s,omitempty"`
}

// Report is the file layout: tool metadata plus the entries in input
// order. No timestamp — the file must be byte-stable across reruns of
// identical measurements so diffs show only real movement.
type Report struct {
	GoVersion string  `json:"go_version"`
	GoOS      string  `json:"goos"`
	GoArch    string  `json:"goarch"`
	Entries   []Entry `json:"benchmarks"`
}

// benchLine matches e.g.
//
//	BenchmarkX/part-8  100  12345 ns/op  8.21 MB/s  120 B/op  3 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+([\d.]+) ns/op(.*)$`)

func main() {
	out := flag.String("out", "", "output file (default stdout)")
	compare := flag.Bool("compare", false, "compare two BENCH_N.json files given as arguments instead of reading bench output")
	threshold := flag.Float64("threshold", 25, "percent regression in ns/op or allocs/op that fails -compare for allowlisted benchmarks")
	hot := flag.String("hot", "", "comma-separated hot-path benchmark prefixes gating -compare (default: built-in allowlist)")
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two files: old.json new.json")
			os.Exit(2)
		}
		allow := defaultHotPath
		if *hot != "" {
			allow = strings.Split(*hot, ",")
		}
		failed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1), allow, *threshold)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		if failed {
			os.Exit(1)
		}
		return
	}
	report, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(report.Entries), *out)
}

func parse(r io.Reader) (*Report, error) {
	report := &Report{
		GoVersion: runtime.Version(),
		GoOS:      runtime.GOOS,
		GoArch:    runtime.GOARCH,
		Entries:   []Entry{},
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad iteration count in %q", sc.Text())
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("bad ns/op in %q", sc.Text())
		}
		e := Entry{Name: m[1], Iterations: iters, NsPerOp: ns}
		for _, field := range []string{"MB/s", "B/op", "allocs/op"} {
			val, ok := extractMetric(m[4], field)
			if !ok {
				continue
			}
			switch field {
			case "MB/s":
				e.MBPerSec = val
			case "B/op":
				v := int64(val)
				e.BytesPerOp = &v
			case "allocs/op":
				v := int64(val)
				e.AllocsPerOp = &v
			}
		}
		report.Entries = append(report.Entries, e)
	}
	return report, sc.Err()
}

// extractMetric pulls "<number> <unit>" out of the tail of a bench
// line.
func extractMetric(tail, unit string) (float64, bool) {
	idx := strings.Index(tail, " "+unit)
	if idx < 0 {
		return 0, false
	}
	head := strings.TrimRight(tail[:idx], " \t")
	fields := strings.Fields(head)
	if len(fields) == 0 {
		return 0, false
	}
	v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// defaultHotPath is the allowlist of hot-path benchmarks -compare
// gates on: the per-query read path (indexed find/select, posting
// intersection, plan-cache hits) where a >threshold ns/op or allocs/op
// regression means a real serving regression. Cold paths (scans,
// recovery, durable ingest) are reported but never gate — their
// absolute numbers wobble too much with I/O.
var defaultHotPath = []string{
	"BenchmarkStoreFindMongo/indexed",
	"BenchmarkStoreSelectJSONPath/indexed",
	"BenchmarkStorePlannerSelective/indexed",
	"BenchmarkStoreIntersection/galloping",
	"BenchmarkEnginePlanCache/jnl/hit",
	"BenchmarkEnginePlanCache/jsl/hit",
	"BenchmarkEnginePlanCache/jsonpath/hit",
	"BenchmarkEnginePlanCache/mongo/hit",
	"BenchmarkEngineEvalZeroAlloc",
	// The semantic planner's serving-path additions: cache hits with
	// the pass enabled must stay indistinguishable from the
	// semantics-off plan cache, and a short-circuited unsat query is a
	// constant-time answer. Semantic misses are deliberately absent —
	// they are budget-bounded compile-time work, not serving work.
	"BenchmarkEngineSemanticCompile/sat/hit",
	"BenchmarkEngineSemanticCompile/unsat/hit",
	"BenchmarkStoreSemanticShortCircuit",
	// Segment-tier restart: Open maps the newest segment instead of
	// replaying the log, so startup is a serving property now. The
	// replay mode stays ungated (I/O-bound).
	"BenchmarkStoreRecover/segment-open/docs=100000",
}

// loadReport reads one BENCH_N.json file.
func loadReport(path string) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// hotPathMatch reports whether a benchmark name is gated, by prefix so
// one entry covers a family's size variants.
func hotPathMatch(allow []string, name string) bool {
	for _, prefix := range allow {
		if strings.HasPrefix(name, strings.TrimSpace(prefix)) {
			return true
		}
	}
	return false
}

// compareFiles renders the per-benchmark deltas between two report
// files and reports whether any allowlisted benchmark regressed past
// the threshold (in percent) on ns/op or allocs/op.
func compareFiles(w io.Writer, oldPath, newPath string, allow []string, threshold float64) (failed bool, err error) {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		return false, err
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		return false, err
	}
	oldByName := make(map[string]Entry, len(oldRep.Entries))
	for _, e := range oldRep.Entries {
		oldByName[e.Name] = e
	}
	newNames := make(map[string]bool, len(newRep.Entries))
	var added []string
	for _, e := range newRep.Entries {
		newNames[e.Name] = true
		if _, ok := oldByName[e.Name]; !ok {
			added = append(added, e.Name)
		}
	}
	var removed []string
	for _, e := range oldRep.Entries {
		if !newNames[e.Name] {
			removed = append(removed, e.Name)
		}
	}
	// Every gate prefix must match something in the new snapshot: a
	// renamed or deleted hot-path benchmark (or a typo in the
	// allowlist) would otherwise silently un-gate itself.
	var unmatched []string
	for _, prefix := range allow {
		hit := false
		for name := range newNames {
			if strings.HasPrefix(name, strings.TrimSpace(prefix)) {
				hit = true
				break
			}
		}
		if !hit {
			unmatched = append(unmatched, strings.TrimSpace(prefix))
		}
	}

	fmt.Fprintf(w, "benchjson compare: %s → %s (gate: >%.0f%% on %d hot-path prefixes)\n\n", oldPath, newPath, threshold, len(allow))
	for _, e := range newRep.Entries {
		old, ok := oldByName[e.Name]
		if !ok {
			continue
		}
		gated := hotPathMatch(allow, e.Name)
		nsDelta := pctDelta(old.NsPerOp, e.NsPerOp)
		line := fmt.Sprintf("%-70s ns/op %12.1f → %12.1f  %s", e.Name, old.NsPerOp, e.NsPerOp, fmtDelta(nsDelta))
		var allocDelta float64
		hasAllocs := old.AllocsPerOp != nil && e.AllocsPerOp != nil
		if hasAllocs {
			allocDelta = pctDelta(float64(*old.AllocsPerOp), float64(*e.AllocsPerOp))
			line += fmt.Sprintf("  allocs/op %6d → %6d  %s", *old.AllocsPerOp, *e.AllocsPerOp, fmtDelta(allocDelta))
		}
		mark := ""
		if gated {
			mark = "  [hot]"
			if nsDelta > threshold || (hasAllocs && allocDelta > threshold) {
				mark = "  [hot: REGRESSION]"
				failed = true
			}
		}
		fmt.Fprintln(w, line+mark)
	}
	if len(added) > 0 {
		fmt.Fprintf(w, "\nadded (%d):\n", len(added))
		for _, name := range added {
			fmt.Fprintf(w, "  + %s\n", name)
		}
	}
	if len(removed) > 0 {
		fmt.Fprintf(w, "\nremoved (%d):\n", len(removed))
		for _, name := range removed {
			fmt.Fprintf(w, "  - %s\n", name)
		}
	}
	if len(unmatched) > 0 {
		failed = true
		fmt.Fprintf(w, "\nhot-path prefixes matching no benchmark in %s (renamed? typo? update the allowlist):\n", newPath)
		for _, prefix := range unmatched {
			fmt.Fprintf(w, "  ? %s\n", prefix)
		}
	}
	if failed {
		fmt.Fprintf(w, "\nFAIL: hot-path regression beyond %.0f%%, or an unmatched gate prefix\n", threshold)
	}
	return failed, nil
}

// pctDelta is the percent change from old to new; a vanished or zero
// old value cannot regress by percentage, so it reports 0 unless the
// new value grew from exactly zero (then it is an unbounded
// regression, capped for display).
func pctDelta(old, new float64) float64 {
	if old == 0 {
		if new == 0 {
			return 0
		}
		return 1e9 // 0 → nonzero: infinite regression, always past threshold
	}
	return (new - old) / old * 100
}

// fmtDelta renders a percent delta with sign, flagging the capped
// zero-to-nonzero case.
func fmtDelta(d float64) string {
	if d >= 1e9 {
		return "(+∞%)"
	}
	return fmt.Sprintf("(%+.1f%%)", d)
}
