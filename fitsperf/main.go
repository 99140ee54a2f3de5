// Command fitsperf is the PowerFITS benchmark. It drives three workloads
// through the layers' public Go functions — the paper's figure suite, a
// design-space sweep and the synthesis service — checks every output
// against the model's recorded goldens, and prints one JSON result line.
//
//	go run . --workload paper_suite --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer ledger of a traced replay. A failed
// correctness gate prints the result with "correct": false and exits 1.
// See README.md for the workloads, metrics and recorded numbers.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"
)

// workers is the pool width every workload runs with: the engine
// workers of the suite and sweep, and the daemon's workers and client
// connections of the service.
const workers = 2

// workload is one named traffic mix. run measures the end-to-end
// metrics; traced replays the same work with spans and reports the
// per-layer ledger.
type workload struct {
	name   string
	run    func(*env) (*outcome, error)
	traced func(*env) (*outcome, error)
}

var workloads = []workload{
	{"paper_suite", runSuite, traceSuite},
	{"design_sweep", runSweep, traceSweep},
	{"synth_service", runService, traceService},
}

// env is what a workload gets from the command line.
type env struct {
	seed    int64
	budget  time.Duration // the measured time of one run (--seconds)
	workDir string        // scratch space of this run, removed at exit
	outDir  string        // where the traced run leaves its spans
	log     io.Writer
}

// spanPath is where a traced run of the named workload writes its spans.
func (e *env) spanPath(name string) string {
	return filepath.Join(e.outDir, "spans-"+name+".jsonl")
}

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.log, "fitsperf: "+format+"\n", args...)
}

// outcome is one run's result before rendering.
type outcome struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	problems  []string // failed correctness gates
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

func (o *outcome) set(name string, v float64) { o.metrics[name] = v }

// gate records a failed correctness check; the run then reports
// "correct": false and exits non-zero.
func (o *outcome) gate(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if !slices.Contains(o.problems, msg) {
		o.problems = append(o.problems, msg)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fitsperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper_suite, design_sweep or synth_service")
	seed := fs.Int64("seed", 1, "seed of the generated inputs (only synth_service draws from it)")
	seconds := fs.Int("seconds", 35, "measured time of the run in seconds")
	trace := fs.Int("trace", 0, "1 = traced replay reporting the per-layer ledger")
	work := fs.String("workdir", ".bench_build", "directory for scratch state")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "fitsperf: need --workload paper_suite|design_sweep|synth_service, --seconds ≥ 1, --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(stderr, "fitsperf:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*work, "run-"+w.name+"-")
	if err != nil {
		fmt.Fprintln(stderr, "fitsperf:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	warmUp()
	e := &env{seed: *seed, budget: time.Duration(*seconds) * time.Second,
		workDir: dir, outDir: *work, log: stderr}

	decls := endToEnd
	body := w.run
	if *trace == 1 {
		decls, body = perLayer, w.traced
	}
	out, err := body(e)
	if err != nil {
		fmt.Fprintf(stderr, "fitsperf: %s: %v\n", w.name, err)
		return 1
	}
	if *trace == 0 {
		out.set("peak_rss_mb", peakRSSMB())
	} else {
		runtimeMetrics(out)
		if out.attempted > 0 {
			out.set("bench.fail_frac", float64(out.failed)/float64(out.attempted))
		}
	}
	line := resultLine{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, p := range out.problems {
		fmt.Fprintf(stderr, "fitsperf: %s: GATE FAILED: %s\n", w.name, p)
	}
	for _, d := range decls {
		v, ok := out.metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "fitsperf: %s: metric %s was not measured (%v)\n", w.name, d.Name, v)
			return 1
		}
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	printSummary(stderr, w.name, line)
	blob, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "fitsperf:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(blob))
	if !line.Correct {
		return 1
	}
	return 0
}

// warmUp keeps every processor busy for half a second before anything
// is timed: on an idle virtual machine the first fraction of a second
// of load runs measurably slower, which would land in setup_s.
func warmUp() {
	var wg sync.WaitGroup
	stop := time.Now().Add(500 * time.Millisecond)
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := make([]byte, 64<<10)
			for time.Now().Before(stop) {
				sha256.Sum256(b)
			}
		}()
	}
	wg.Wait()
}

// printSummary writes the metrics as an aligned table on stderr, so a
// person running the command reads them without parsing the JSON.
func printSummary(w io.Writer, name string, line resultLine) {
	keys := make([]string, 0, len(line.Metrics))
	for k := range line.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "fitsperf: %s: correct=%t attempted=%d failed=%d\n",
		name, line.Correct, line.Attempted, line.Failed)
	for _, k := range keys {
		m := line.Metrics[k]
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", k, m.Value, m.Unit)
	}
}

// peakRSSMB is the process's peak resident set (getrusage ru_maxrss,
// KiB on Linux) in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// runtimeMetrics adds the Go runtime's allocation and GC totals.
func runtimeMetrics(o *outcome) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	o.set("runtime.alloc_mb", float64(ms.TotalAlloc)/(1<<20))
	o.set("runtime.gc_cycles", float64(ms.NumGC))
}
