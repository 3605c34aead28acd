// Command perfbench is the emulator's end-to-end benchmark. It drives the
// three user-visible paths of the repository — workload → host → bus →
// board, trace file → decode → simulator, and HTTP → session queue →
// board — through the public calls of each layer, times them from
// outside, and checks every result against a separate LRU presence model
// and a set of conservation laws.
//
//	go run . --workload oltp-8way --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":…, "attempted":…, "failed":…, "metrics":{…}}. With --trace 0
// the metrics are the end-to-end ones, measured with no instrumentation
// attached; with --trace 1 they are the per-layer ones, and a per-layer
// self-time table goes to standard error. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the JSON object printed as the last line of stdout.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workDir  string // scratch files (the generated trace)
	spansDir string // span dumps of traced runs
	scale    scale
}

// scale sizes a workload. Full is what the benchmark runs; tests use a
// miniature one.
type scale struct {
	warmRefs  uint64 // oltp warm-up references run during set-up
	chunkRefs uint64 // oltp-8way references per step; oltp-64way takes half
	traceRecs int    // records in the generated trace stream
	// ingestWarm is how many blocks trace-ingest POSTs during set-up.
	ingestWarm int
	// minSteps is the smallest number of (untraced) steps a run takes,
	// so that at least ten step samples lie beyond the 99th percentile.
	minSteps int
	// countsAt is the step after which the simulated counts are read. It
	// is fixed, so those counts depend only on the seed and never on how
	// long a run lasted.
	countsAt int
	// setupRepeat is how many times a run builds its workload from
	// scratch; setup_s is the median, and the last build is timed.
	setupRepeat int
}

var fullScale = scale{
	warmRefs:    1_000_000,
	chunkRefs:   8192,
	traceRecs:   2_000_000,
	ingestWarm:  ingestWarmPosts,
	minSteps:    1000,
	countsAt:    1000,
	setupRepeat: 5,
}

// check is one correctness assertion.
type check struct {
	name   string
	ok     bool
	detail string
}

func checkEq(name string, got, want uint64) check {
	return check{name: name, ok: got == want, detail: fmt.Sprintf("got %d, want %d", got, want)}
}

// runner is one workload, set up and ready to time.
type runner interface {
	// run executes whole steps until stop reports true, calling done
	// with the input references each step consumed. tr is non-nil only
	// in a traced run; its on() tells whether the current step records
	// spans.
	run(tr *tracer, stop func() bool, done func(refs uint64)) error
	// counts returns the simulated counts at the current point, read
	// from the program's public statistics.
	counts() map[string]float64
	// layers converts the tracer's per-layer totals into per-layer
	// metrics (traced runs only).
	layers(tr *tracer, refs uint64) map[string]float64
	// check verifies the run's outputs; it runs after timing.
	check() []check
	close()
}

// workloadDef names a workload and builds it.
type workloadDef struct {
	name  string
	setup func(o options) (runner, error)
	// procs is the GOMAXPROCS the workload runs with, at most the
	// machine's CPUs.
	procs int
}

var workloads = []workloadDef{
	{"oltp-8way", setupOLTP8, 2},
	{"oltp-64way", setupOLTP64, 2},
	{"trace-replay", setupTraceReplay, 2},
	// The client, the connection's server goroutine and the session
	// worker of trace-ingest hand each step to one another and are never
	// busy at once. On one P every hand-off is a goroutine switch; on two
	// it is a wake-up of another thread, whose latency is the host's
	// scheduling, not the program's.
	{"trace-ingest", setupTraceIngest, 1},
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	wl := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "timed phase length in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	o := options{
		workload: *wl,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		workDir:  ".bench_build/work",
		spansDir: ".bench_build/spans",
		scale:    fullScale,
	}
	res, err := execute(o, stderr)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(line))
	return err
}

// execute runs one workload and returns its report.
func execute(o options, log io.Writer) (output, error) {
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == o.workload {
			def = &workloads[i]
		}
	}
	if def == nil {
		return output{}, fmt.Errorf("unknown workload %q", o.workload)
	}
	// One process, at most two busy threads: the benchmark is meant to
	// compare commits on a small machine, not to scale with its size.
	runtime.GOMAXPROCS(min(def.procs, runtime.NumCPU()))
	workDir, err := os.MkdirTemp(mkdir(o.workDir), "run-")
	if err != nil {
		return output{}, err
	}
	defer os.RemoveAll(workDir)
	o.workDir = workDir

	// Set-up, repeated: every build but the last is thrown away.
	var setups, setupWall []float64
	var r runner
	for i := 0; i < o.scale.setupRepeat; i++ {
		if r != nil {
			r.close()
		}
		// Every set-up starts from a collected heap, so none pays for
		// the garbage of the one before.
		runtime.GC()
		t0, c0 := time.Now(), cpuSeconds()
		r, err = def.setup(o)
		if err != nil {
			return output{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, cpuSeconds()-c0)
		setupWall = append(setupWall, time.Since(t0).Seconds())
	}
	defer r.close()

	h := newHarness(o)
	if err := h.timed(r); err != nil {
		return output{}, err
	}
	checks := r.check()
	checks = append(checks, check{name: "minimum steps", ok: h.totalSteps() >= o.scale.minSteps,
		detail: fmt.Sprintf("%d steps, want ≥ %d", h.totalSteps(), o.scale.minSteps)})
	var layer map[string]float64
	if o.trace {
		layer = r.layers(h.tr, h.traced.refs)
		for name, v := range h.counts {
			layer[name] = v
		}
		for name, v := range h.traceFigures() {
			layer[name] = v
		}
		checks = append(checks, residualCheck(layer["trace.residual_pct"]))
	}
	var failed int64
	for _, c := range checks {
		if !c.ok {
			failed++
			fmt.Fprintf(log, "CHECK FAILED: %s: %s\n", c.name, c.detail)
		}
	}
	out := output{
		Correct:   failed == 0,
		Attempted: int64(h.totalSteps() + len(checks)),
		Failed:    failed,
		Metrics:   map[string]metric{},
	}
	fmt.Fprintf(log, "set-up (median of %d): %.4f s CPU, %.4f s wall; timed phase: %d refs in %.4f s CPU, %.4f s wall (%.0f refs/s CPU, %.0f refs/s wall)\n",
		len(setups), median(setups), median(setupWall), h.untraced.refs+h.traced.refs, h.cpuSecs, h.wallSecs,
		float64(h.untraced.refs+h.traced.refs)/h.cpuSecs, float64(h.untraced.refs+h.traced.refs)/h.wallSecs)
	if !o.trace {
		for name, v := range h.endToEnd(setups) {
			out.Metrics[name] = metric{Value: v, Unit: endToEndUnits[name]}
		}
		return out, nil
	}
	for _, m := range perLayerMetrics {
		out.Metrics[m.name] = metric{Value: layer[m.name], Unit: m.unit}
	}
	h.printTable(log, layer)
	path := filepath.Join(mkdir(o.spansDir), fmt.Sprintf("%s-seed%d.tsv", o.workload, o.seed))
	if err := h.tr.write(path); err != nil {
		return output{}, err
	}
	fmt.Fprintf(log, "spans: %d written to %s\n", len(h.tr.spans), path)
	return out, nil
}

// mkdir creates dir (and parents) and returns it; a failure surfaces at
// the first use of the directory.
func mkdir(dir string) string {
	_ = os.MkdirAll(dir, 0o755)
	return dir
}

var endToEndUnits = map[string]string{
	"setup_s":     "s",
	"refs_per_s":  "refs/s",
	"step_p50_ms": "ms",
	"heap_mb":     "MB",
}

// layerMetric is one per-layer metric as declared in BENCHMARK.json.
type layerMetric struct{ name, unit string }

var perLayerMetrics = []layerMetric{
	{"workload.next_ns", "ns/ref"},
	{"host.self_ns_per_ref", "ns/ref"},
	{"core.snoop_ns_per_tx", "ns/tx"},
	{"tracefile.decode_ns_per_rec", "ns/rec"},
	{"simbase.process_ns_per_rec", "ns/rec"},
	{"service.post_ms", "ms"},
	{"service.apply_wait_ms", "ms"},
	{"service.apply_ns_per_rec", "ns/rec"},
	{"step.p99_ms", "ms"},
	{"trace.residual_pct", "%"},
	{"trace.overhead_pct", "%"},
	{"gc.cycles", "count"},
	{"gc.pause_ms", "ms"},
	{"host.l2_misses", "count"},
	{"host.upgrades", "count"},
	{"host.castouts", "count"},
	{"host.retried", "count"},
	{"bus.tx", "count"},
	{"bus.busy_pct", "%"},
	{"core.accepted", "count"},
	{"core.filtered", "count"},
	{"core.retry_posted", "count"},
	{"core.buffer_high_water", "count"},
	{"core.a.miss_ratio", "ratio"},
	{"core.b.miss_ratio", "ratio"},
	{"core.c.miss_ratio", "ratio"},
	{"core.d.miss_ratio", "ratio"},
	{"simbase.miss_ratio", "ratio"},
	{"sdram.stall_cycles", "count"},
	{"sdram.bank_conflicts", "count"},
	{"cache.resident_lines", "count"},
	{"service.posts", "count"},
	{"service.rejected", "count"},
}

// quantile returns the q-quantile of sorted xs by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
