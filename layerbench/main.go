// Command layerbench is the repository's layer-attributed benchmark. It
// runs one named workload of the PDS simulator on a single goroutine,
// checks its outputs, and prints its end-to-end metrics (untraced) or,
// with -trace 1, its per-layer metrics from a separate traced run of the
// same seed. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 3, "failed": 0, "metrics": {"run_s": {"value": 2.7, "unit": "s"}, ...}}
//
// Run it from the repository root through layerbench/run.sh, which
// builds it:
//
//	bash layerbench/run.sh --workload pdr-grid --seed 1 --seconds 12 --trace 0
//
// See layerbench/README.md for the workloads, the metrics and the
// layer → end-to-end table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// minSetups is how many set-ups every run times, at least.
const minSetups = 15

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	root     string // repository root, for the fidelity golden
	spansDir string // where the traced run writes its spans ("" = nowhere)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("layerbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	var traced int
	fs.StringVar(&c.workload, "workload", "", "workload: pdr-grid, pdd-mixedcast or city-discovery")
	fs.Int64Var(&c.seed, "seed", 1, "workload seed; deployments cycle through seeds seed, seed+1, ...")
	fs.Float64Var(&c.seconds, "seconds", 12, "measure for this many host seconds (closed loop over deployments)")
	fs.IntVar(&traced, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	fs.StringVar(&c.root, "root", ".", "repository root (holds the fidelity golden)")
	fs.StringVar(&c.spansDir, "spans-dir", "", "write the traced run's spans as gzipped TSV into this directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traced != 0 && traced != 1 {
		fmt.Fprintf(stderr, "layerbench: -trace must be 0 or 1, got %d\n", traced)
		return 2
	}
	c.traced = traced == 1
	var wl *workload
	for _, w := range workloads(false) {
		if w.name == c.workload {
			wl = w
		}
	}
	if wl == nil {
		fmt.Fprintf(stderr, "layerbench: unknown workload %q\n", c.workload)
		return 2
	}
	var (
		res *result
		err error
	)
	if c.traced {
		res, err = measureTraced(wl, c)
	} else {
		res, err = measureEndToEnd(wl, c)
	}
	if err != nil {
		fmt.Fprintf(stderr, "layerbench: %v\n", err)
		return 1
	}
	res.print(stdout, stderr)
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one invocation's report.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// notes are printed above the JSON line: problems, digests, the
	// tail percentile, the unattributed remainder.
	notes []string
}

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

func (r *result) note(format string, a ...any) { r.notes = append(r.notes, fmt.Sprintf(format, a...)) }

func (r *result) problem(format string, a ...any) {
	r.Correct = false
	r.note("PROBLEM: "+format, a...)
}

func (r *result) print(stdout, stderr io.Writer) {
	for _, n := range r.notes {
		fmt.Fprintln(stdout, n)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(stdout, "%-28s %16.6f %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintf(stderr, "layerbench: encode result: %v\n", err)
		return
	}
	fmt.Fprintln(stdout, string(line))
}

// deployment is one deployment's host cost and outcome.
type deployment struct {
	seed            int64
	setupS, runS    float64
	runCPUS         float64 // process CPU time over the run phase
	allocB, mallocs uint64
	heapB           uint64
	gcCycles        uint32
	gcCPUS          float64
	out             outcome
	layers          *layerRun // traced runs only
}

// runDeployment builds one deployment, runs its measured phase and
// checks its outputs. The heap is collected before set-up and before
// the run so each phase starts from the same collector state.
func runDeployment(wl *workload, seed int64, pr *probe) deployment {
	d := deployment{seed: seed}
	runtime.GC()
	t0 := time.Now()
	tr := wl.build(seed, pr)
	d.setupS = time.Since(t0).Seconds()
	w := tr.world()
	runtime.GC()
	var before, after, live runtime.MemStats
	var start layerSnapshot
	if pr != nil {
		start = snapshot(w)
	}
	runtime.ReadMemStats(&before)
	gc0 := gcCPUSeconds()
	cpu0 := processCPUSeconds()
	t1 := time.Now()
	tr.run()
	d.runS = time.Since(t1).Seconds()
	d.runCPUS = processCPUSeconds() - cpu0
	if pr != nil {
		d.layers = &layerRun{start: start, end: snapshot(w)}
	}
	d.gcCPUS = gcCPUSeconds() - gc0
	runtime.ReadMemStats(&after)
	d.allocB = after.TotalAlloc - before.TotalAlloc
	d.mallocs = after.Mallocs - before.Mallocs
	d.gcCycles = after.NumGC - before.NumGC
	runtime.GC()
	runtime.ReadMemStats(&live)
	d.heapB = live.HeapAlloc
	runtime.KeepAlive(tr)
	if pr != nil {
		pr.finish(w, wl.item, wl.publishedChunks)
	}
	d.out = tr.outcome()
	return d
}

// timeSetup times one throwaway set-up.
func timeSetup(wl *workload, seed int64) float64 {
	runtime.GC()
	t0 := time.Now()
	tr := wl.build(seed, nil)
	s := time.Since(t0).Seconds()
	runtime.KeepAlive(tr)
	return s
}

// processCPUSeconds is the user plus system CPU time of the process.
func processCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func gcCPUSeconds() float64 {
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() != rtmetrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// checkAnchor compares the first deployment at seed 1 with its golden
// row; other deployments have no anchor.
func checkAnchor(wl *workload, c config, d deployment, r *result) error {
	if wl.anchor == nil || d.seed != 1 {
		return nil
	}
	mismatch, err := wl.anchor.check(c.root, d.out.row)
	if err != nil {
		return err
	}
	if mismatch != "" {
		r.problem("%s", mismatch)
		return nil
	}
	r.note("fidelity anchor %s / %s: matches the golden row", wl.anchor.section, wl.anchor.label)
	return nil
}

func (r *result) addOutcome(d deployment) {
	r.Attempted += d.out.ops
	r.Failed += d.out.failed
	for _, p := range d.out.problems {
		r.problem("seed %d: %s", d.seed, p)
	}
}

// measureEndToEnd runs the workload untraced for the time budget and
// reports the end-to-end metrics. Deployments cycle through the fixed
// seeds seed .. seed+wl.simDeployments-1, at least one full cycle, so
// every figure covers the same work however fast the host is: run_s and
// setup_s are medians over every deployment, the allocation and heap
// figures and the sim metrics come from the first cycle.
func measureEndToEnd(wl *workload, c config) (*result, error) {
	r := &result{Correct: true, Metrics: map[string]metric{}}
	seedAt := func(k int) int64 { return c.seed + int64(k%wl.simDeployments) }
	start := time.Now()
	var deps []deployment
	for k := 0; k < wl.simDeployments || time.Since(start).Seconds() < c.seconds; k++ {
		d := runDeployment(wl, seedAt(k), nil)
		if k < wl.simDeployments {
			if err := checkAnchor(wl, c, d, r); err != nil {
				return nil, err
			}
			r.addOutcome(d)
		} else if d.out.digest != deps[k-wl.simDeployments].out.digest {
			r.problem("seed %d: repeated deployment's sim digest %016x differs from its first run's %016x",
				d.seed, d.out.digest, deps[k-wl.simDeployments].out.digest)
		}
		lat := sortDurations(d.out.latencies)
		r.note("deployment seed %d: run %.3fs (cpu %.3fs, gc cpu %.3fs) setup %.3fs; recall %.4f overhead %.2fMB latency p50 %.3fs max %.3fs of %d; digest %016x",
			d.seed, d.runS, d.runCPUS, d.gcCPUS, d.setupS, d.out.recall, float64(d.out.overhead)/1e6,
			p50(lat).Seconds(), lastOr0(lat).Seconds(), len(lat), d.out.digest)
		deps = append(deps, d)
	}
	var setups, runs, allocs, mallocs, heaps []float64
	for k, d := range deps {
		setups = append(setups, d.setupS)
		runs = append(runs, d.runS)
		if k < wl.simDeployments {
			allocs = append(allocs, float64(d.allocB))
			mallocs = append(mallocs, float64(d.mallocs))
			heaps = append(heaps, float64(d.heapB))
		}
	}
	for k := len(deps); len(setups) < minSetups; k++ {
		setups = append(setups, timeSetup(wl, seedAt(k)))
	}
	r.set("setup_s", median(setups), "s")
	r.set("run_s", median(runs), "s")
	r.set("alloc_mb", median(allocs)/1e6, "MB")
	r.set("allocs_m", median(mallocs)/1e6, "M")
	r.set("heap_mb", median(heaps)/1e6, "MB")
	r.simMetrics(deps[:wl.simDeployments])
	r.note("%s: %d deployments in %.1fs over seeds %d..%d; allocation, heap and sim metrics from the first %d",
		wl.name, len(deps), time.Since(start).Seconds(), c.seed, seedAt(wl.simDeployments-1), wl.simDeployments)
	return r, nil
}

// simMetrics sets the simulated-time and simulated-byte metrics, which
// repeat exactly for a seed.
func (r *result) simMetrics(deps []deployment) {
	var recall, overhead float64
	var lat []time.Duration
	for _, d := range deps {
		recall += d.out.recall
		overhead += float64(d.out.overhead)
		lat = append(lat, d.out.latencies...)
	}
	n := float64(len(deps))
	sorted := sortDurations(lat)
	tv, tp := tail(sorted)
	r.set("recall", recall/n, "ratio")
	r.set("overhead_mb", overhead/n/1e6, "MB")
	r.set("sim_latency_p50_s", p50(sorted).Seconds(), "s")
	r.set("sim_latency_tail_s", tv.Seconds(), "s")
	r.note("sim_latency_tail_s is p%g of %d samples", tp, len(sorted))
}

// measureTraced runs the seed's first deployment untraced, then again
// traced, checks that both produce the same sim digest, and reports the
// per-layer metrics of the traced run.
func measureTraced(wl *workload, c config) (*result, error) {
	r := &result{Correct: true, Metrics: map[string]metric{}}
	u := runDeployment(wl, c.seed, nil)
	if err := checkAnchor(wl, c, u, r); err != nil {
		return nil, err
	}
	r.addOutcome(u)
	pr := newProbe()
	t := runDeployment(wl, c.seed, pr)
	r.addOutcome(t)
	r.note("digest untraced %016x traced %016x", u.out.digest, t.out.digest)
	if u.out.digest != t.out.digest {
		r.problem("traced run's sim digest %016x differs from the untraced run's %016x", t.out.digest, u.out.digest)
	}
	r.layerMetrics(pr, u, t)
	if c.spansDir != "" {
		path := filepath.Join(c.spansDir, fmt.Sprintf("%s-seed%d.tsv.gz", wl.name, c.seed))
		if err := pr.writeSpans(path); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		r.note("spans written to %s (%d kept, %d not kept)", path, len(pr.spans), pr.lost)
	}
	return r, nil
}
