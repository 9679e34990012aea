// Command perfbench is jsonstored's end-to-end and per-layer
// benchmark. It stands the production stack up in-process
// (httpapi.NewHandler over store.Open on a data directory, with the
// daemon's default engine, store and trace options unless a workload
// says otherwise, served on loopback TCP), drives it from one process
// with at most two connections, checks every answer against the
// generator's expectation, and prints every metric by name and unit.
//
// Run it from the root of the repository through run.sh, which builds
// it:
//
//	bash perfbench/run.sh --workload lookup --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh --selftest
//	bash perfbench/run.sh --compare a.out,b.out c.out,d.out
//
// --trace 0 prints the end-to-end metrics of an untraced run. --trace 1
// splits the time in two halves, untraced then traced, and prints the
// per-layer metrics and a reconciliation of the layers against the
// untraced latencies. The last line of standard output is the result
// object; the lines before it record the host and configuration.
// DESIGN.md gives the workloads, metrics and what each layer metric
// should move.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	tiny     bool
	corrupt  bool
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// hostInfo is recorded with every result; --compare refuses results
// from different hosts.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	Go         string `json:"go_version"`
	OSArch     string `json:"os_arch"`
}

type runInfo struct {
	Host     hostInfo       `json:"host"`
	Source   string         `json:"source_sha256"`
	Workload string         `json:"workload"`
	Seed     uint64         `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Trace    bool           `json:"trace"`
	Config   workloadConfig `json:"config"`
}

func main() {
	var (
		o        options
		traceArg int
		selftest bool
		compare  bool
	)
	flag.StringVar(&o.workload, "workload", "", "lookup, scan, write-mix or restart")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceArg, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	flag.BoolVar(&selftest, "selftest", false, "run every workload at tiny sizes and check the benchmark itself")
	flag.BoolVar(&compare, "compare", false, "compare two comma-separated lists of saved outputs: --compare A1,A2 B1,B2")
	flag.Parse()
	o.trace = traceArg == 1

	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	switch {
	case compare:
		if flag.NArg() != 2 {
			fatal(errors.New("--compare takes two comma-separated lists of files"))
		}
		if err := compareRuns(os.Stdout, strings.Split(flag.Arg(0), ","), strings.Split(flag.Arg(1), ",")); err != nil {
			fatal(err)
		}
	case selftest:
		if err := runSelftest(spec); err != nil {
			fatal(err)
		}
		fmt.Println("selftest ok")
	default:
		res, err := runOne(os.Stdout, o)
		if err != nil {
			fatal(err)
		}
		if err := printResult(os.Stdout, res); err != nil {
			fatal(err)
		}
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func printResult(w io.Writer, res result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// runOne runs one workload and returns its result; the host,
// configuration and (traced) reconciliation lines go to w first.
func runOne(w io.Writer, o options) (result, error) {
	wl, err := workloadFor(o.workload, o.tiny)
	if err != nil {
		return result{}, err
	}
	dataRoot := filepath.Join(".bench_build", "data")
	if err := os.MkdirAll(dataRoot, 0o755); err != nil {
		return result{}, err
	}
	b := &bench{name: o.workload, seed: o.seed, wl: wl, corrupt: o.corrupt, dataRoot: dataRoot}
	if err := b.generate(); err != nil {
		return result{}, err
	}
	b.wl.DashboardPool, b.wl.ScanPool = len(b.dash), len(b.scan)
	info := runInfo{Host: host(), Source: sourceDigest(), Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Config: b.wl}
	line, err := json.Marshal(info)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintln(w, string(line))

	res, err := b.run(w, o)
	if terr := b.teardown(); terr != nil && err == nil {
		err = terr
	}
	return res, err
}

func (b *bench) run(w io.Writer, o options) (result, error) {
	if err := b.setupAll(o.trace); err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	d := time.Duration(o.seconds * float64(time.Second))
	res := result{Metrics: make(map[string]metricValue)}
	var phases []*phase
	var values map[string]float64
	var specs []metricSpec
	if !o.trace {
		ph, err := b.measure(d, false)
		if err != nil {
			return result{}, err
		}
		phases = []*phase{ph}
		values, specs = b.endToEndMetrics(ph), endToEnd
	} else {
		ph0, err := b.measure(d/2, false)
		if err != nil {
			return result{}, err
		}
		ph1, err := b.measure(d/2, true)
		if err != nil {
			return result{}, err
		}
		phases = []*phase{ph0, ph1}
		b.reconcile(w, ph0, ph1)
		values, specs = b.layerMetrics(ph0, ph1), perLayer
	}
	for _, s := range specs {
		res.Metrics[s.name] = metricValue{Value: values[s.name], Unit: s.unit}
	}
	for _, ph := range phases {
		res.Attempted += ph.ops
		res.Failed += ph.failed
		for _, e := range ph.errs {
			fmt.Fprintln(w, "# error:", e)
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	fmt.Fprintf(w, "# %s: attempted=%d failed=%d error_ratio=%.6f\n", b.name, res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
	return res, nil
}

func host() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// sourceDigest identifies the code measured: a hash over the module's
// Go sources and go.mod (the checkout the benchmark runs in need not be
// a git repository, so there is no commit to read).
func sourceDigest() string {
	hash := sha256.New()
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || filepath.Base(path) == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(hash, "%s %d\n", f, len(b))
		hash.Write(b)
	}
	return hex.EncodeToString(hash.Sum(nil))[:16]
}

// benchSpec is the part of BENCHMARK.json the program must agree with.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// readSpec loads BENCHMARK.json and refuses to run when its metric
// names or units differ from the ones this program prints.
func readSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark spec: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	check := func(kind string, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, want []metricSpec) error {
		if len(got) != len(want) {
			return fmt.Errorf("%s lists %d %s metrics, the program prints %d", path, len(got), kind, len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				return fmt.Errorf("%s %s metric %d is %s (%s), the program prints %s (%s)", path, kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
		return nil
	}
	if err := check("end_to_end", s.EndToEnd, endToEnd); err != nil {
		return nil, err
	}
	if err := check("per_layer", s.PerLayer, perLayer); err != nil {
		return nil, err
	}
	return &s, nil
}

// runSelftest runs every workload of the spec end to end at tiny
// sizes, traced and untraced, checks each is correct and prints
// exactly the spec's metrics, then checks that a deliberately wrong
// expected answer fails the run.
func runSelftest(spec *benchSpec) error {
	for _, wl := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			var out strings.Builder
			res, err := runOne(&out, options{workload: wl.Name, seed: 7, seconds: 1, trace: traced, tiny: true})
			if err != nil {
				return fmt.Errorf("%s trace=%v: %w", wl.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 {
				return fmt.Errorf("%s trace=%v: %d of %d operations failed:\n%s", wl.Name, traced, res.Failed, res.Attempted, out.String())
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				return fmt.Errorf("%s trace=%v: printed %d metrics, want %d", wl.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if _, ok := res.Metrics[m.name]; !ok {
					return fmt.Errorf("%s trace=%v: metric %s not printed", wl.Name, traced, m.name)
				}
			}
			fmt.Printf("selftest %s trace=%v: %d operations, all answers correct\n", wl.Name, traced, res.Attempted)
		}
	}
	var out strings.Builder
	res, err := runOne(&out, options{workload: "lookup", seed: 7, seconds: 1, tiny: true, corrupt: true})
	if err != nil {
		return fmt.Errorf("corrupted lookup: %w", err)
	}
	if res.Correct || res.Failed == 0 {
		return errors.New("a deliberately wrong expected answer went unnoticed")
	}
	fmt.Printf("selftest corrupted expectation: %d of %d operations reported wrong\n", res.Failed, res.Attempted)
	return nil
}

// savedRun is one saved output: its host line and its result line.
type savedRun struct {
	info runInfo
	res  result
}

func loadRun(path string) (savedRun, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return savedRun{}, err
	}
	var r savedRun
	var sawInfo, sawRes bool
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		switch {
		case strings.HasPrefix(line, `{"host"`):
			sawInfo = json.Unmarshal([]byte(line), &r.info) == nil
		case strings.HasPrefix(line, `{"correct"`):
			sawRes = json.Unmarshal([]byte(line), &r.res) == nil
		}
	}
	if !sawInfo || !sawRes {
		return r, fmt.Errorf("%s: no host line or no result line", path)
	}
	return r, nil
}

// compareRuns prints, per metric, the median of each side and the
// change. It refuses runs from different hosts or of different
// workloads, trace modes or configurations.
func compareRuns(w io.Writer, as, bs []string) error {
	var runs [2][]savedRun
	for side, paths := range [2][]string{as, bs} {
		for _, p := range paths {
			r, err := loadRun(p)
			if err != nil {
				return err
			}
			runs[side] = append(runs[side], r)
		}
	}
	ref := runs[0][0].info
	for _, side := range runs {
		for _, r := range side {
			if r.info.Host != ref.Host {
				return fmt.Errorf("refusing to compare runs from different hosts: %+v vs %+v", ref.Host, r.info.Host)
			}
			if r.info.Workload != ref.Workload || r.info.Trace != ref.Trace || r.info.Seconds != ref.Seconds {
				return errors.New("refusing to compare runs of different workloads, trace modes or lengths")
			}
		}
	}
	names := make([]string, 0, len(runs[0][0].res.Metrics))
	for n := range runs[0][0].res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-36s %14s %14s %9s\n", "metric", "A median", "B median", "change")
	for _, n := range names {
		var med [2]float64
		for side := range runs {
			var xs []float64
			for _, r := range runs[side] {
				xs = append(xs, r.res.Metrics[n].Value)
			}
			med[side] = median(xs)
		}
		fmt.Fprintf(w, "%-36s %14.4f %14.4f %+8.1f%%\n", n, med[0], med[1], 100*ratio(med[1]-med[0], med[0]))
	}
	return nil
}
