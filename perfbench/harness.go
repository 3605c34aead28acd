package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// cpuSeconds is the CPU time the process has used so far, user and
// system, all threads. A guest kernel with paravirtual steal accounting
// leaves out the time the hypervisor held a vCPU back, so this counts
// only time the process ran, on a shared host as on a dedicated one.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// residualLimitPct is the stated bound on the residual of a traced run:
// the share of traced step time that no wrapped public call covers.
// Beyond it the layer breakdown does not account for the step, and the
// run fails a check.
const residualLimitPct = 10

// residualCheck fails a traced run whose residual is beyond the limit.
func residualCheck(pct float64) check {
	return check{name: "traced step time no wrapped call covers", ok: math.Abs(pct) <= residualLimitPct,
		detail: fmt.Sprintf("%.2f%%, want within ±%d%%", pct, residualLimitPct)}
}

// phase accumulates the steps of one timing phase.
type phase struct {
	stepsMs []float64
	refs    uint64
	secs    float64
}

func (p *phase) nsPerRef() float64 {
	if p.refs == 0 {
		return 0
	}
	return p.secs * 1e9 / float64(p.refs)
}

// alternateEvery is how long a traced run stays traced or untraced
// before switching. The machine's speed wanders over seconds, so the two
// kinds of step are interleaved finely to see the same machine.
const alternateEvery = 200 * time.Millisecond

// harness runs a workload's timed phase. An untraced run times every
// step with nothing attached. A traced run alternates between untraced
// and traced stretches, so the tracing overhead is measured on the same
// stream, in the same process, at the same time.
type harness struct {
	o                options
	tr               *tracer
	untraced, traced phase
	counts           map[string]float64
	// wallSecs and cpuSecs are the length of the timed phase and the
	// process CPU time spent in it.
	wallSecs, cpuSecs float64
	gcCycles          uint32
	gcPauseNs         uint64
	heapMB            float64
}

func newHarness(o options) *harness {
	h := &harness{o: o}
	if o.trace {
		h.tr = newTracer(o.seed)
	}
	return h
}

func (h *harness) totalSteps() int { return len(h.untraced.stepsMs) + len(h.traced.stepsMs) }

// timed runs whole steps for the configured time (and at least
// minSteps), reading the simulated counts after step countsAt.
func (h *harness) timed(r runner) error {
	total := time.Duration(h.o.seconds * float64(time.Second))
	runtime.GC()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	start := time.Now()
	cpu0 := cpuSeconds()
	last, switched := start, start
	steps := 0
	// A traced run needs minSteps untraced steps of its own, for the
	// step.p99_ms it reports.
	stop := func() bool {
		if steps < h.o.scale.minSteps || time.Since(start) < total {
			return false
		}
		return h.tr == nil || (len(h.traced.stepsMs) > 0 && len(h.untraced.stepsMs) >= h.o.scale.minSteps)
	}
	done := func(refs uint64) {
		now := time.Now()
		d := now.Sub(last)
		ph := &h.untraced
		if h.tr.on() {
			ph = &h.traced
			h.tr.end()
		}
		ph.stepsMs = append(ph.stepsMs, float64(d)/1e6)
		ph.refs += refs
		ph.secs += d.Seconds()
		steps++
		if steps == h.o.scale.countsAt {
			h.counts = r.counts()
		}
		if h.tr != nil && now.Sub(switched) >= alternateEvery {
			h.tr.enabled = !h.tr.enabled
			switched = now
		}
		last = time.Now()
		if h.tr.on() {
			h.tr.step++
			h.tr.stack = h.tr.stack[:0]
			h.tr.begin(lStep)
		}
	}
	err := r.run(h.tr, stop, done)
	h.cpuSecs = cpuSeconds() - cpu0
	h.wallSecs = time.Since(start).Seconds()
	if h.tr.on() && len(h.tr.stack) > 0 {
		// The step opened after the last one never ran; drop it.
		h.tr.stack = h.tr.stack[:0]
		if n := len(h.tr.spans); n > 0 && h.tr.spans[n-1].layer == lStep {
			h.tr.spans = h.tr.spans[:n-1]
		}
	}
	if err != nil {
		return err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h.gcCycles = ms.NumGC - ms0.NumGC
	h.gcPauseNs = ms.PauseTotalNs - ms0.PauseTotalNs
	runtime.GC()
	runtime.ReadMemStats(&ms)
	h.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	return nil
}

// endToEnd returns the end-to-end metrics of an untraced run. Set-up and
// throughput are in CPU seconds of the process, which leave out the time
// a shared host's hypervisor takes; the step median is wall-clock time.
func (h *harness) endToEnd(setups []float64) map[string]float64 {
	return map[string]float64{
		"setup_s":     median(setups),
		"refs_per_s":  float64(h.untraced.refs) / h.cpuSecs,
		"step_p50_ms": median(h.untraced.stepsMs),
		"heap_mb":     h.heapMB,
	}
}

// traceFigures returns the figures of a traced run that belong to no
// single layer: the residual (the share of traced step time no wrapped
// call covers), the tracing overhead (traced against untraced time per
// reference), the GC figures of the timed phase, and the 99th-percentile
// time of its untraced steps.
func (h *harness) traceFigures() map[string]float64 {
	steps := append([]float64(nil), h.untraced.stepsMs...)
	sort.Float64s(steps)
	return map[string]float64{
		"step.p99_ms":        quantile(steps, 0.99),
		"trace.residual_pct": 100 * h.tr.self()[h.tr.own] / h.sumSelf(),
		"trace.overhead_pct": 100 * (h.traced.nsPerRef()/h.untraced.nsPerRef() - 1),
		"gc.cycles":          float64(h.gcCycles),
		"gc.pause_ms":        float64(h.gcPauseNs) / 1e6,
	}
}

// sumSelf is the traced step time: the self times of all layers add up
// to it.
func (h *harness) sumSelf() float64 {
	var sum float64
	for _, v := range h.tr.self() {
		sum += v
	}
	return sum
}

// printTable writes the per-layer self-time table of a traced run.
func (h *harness) printTable(w io.Writer, figs map[string]float64) {
	t := h.tr
	refs := float64(h.traced.refs)
	self := t.self()
	traced := h.sumSelf()
	name := func(l layer) string {
		if l == lStep {
			return t.stepName
		}
		return layerNames[l]
	}
	fmt.Fprintf(w, "%s: traced %d steps, %d refs; timer read %.1f ns; short calls sampled 1 in %d\n",
		h.o.workload, len(h.traced.stepsMs), h.traced.refs, t.timerNs, sampleEvery)
	fmt.Fprintf(w, "%-28s %12s %12s %8s\n", "layer", "self ns/ref", "calls", "share")
	for _, l := range t.rows() {
		fmt.Fprintf(w, "%-28s %12.1f %12d %7.1f%%\n", name(l), self[l]/refs, t.calls[l], 100*self[l]/traced)
	}
	fmt.Fprintf(w, "%-28s %12.1f\n", "traced step time", traced/refs)
	fmt.Fprintf(w, "%-28s %12.1f\n", "less clock reads", (traced-t.instrumentationNs())/refs)
	fmt.Fprintf(w, "%-28s %12.1f\n", "untraced end-to-end", h.untraced.nsPerRef())
	res := figs["trace.residual_pct"]
	verdict := "within"
	if math.Abs(res) > residualLimitPct {
		verdict = "OUTSIDE"
	}
	fmt.Fprintf(w, "residual: %.2f%% of traced step time is covered by no wrapped call (%s, %s the stated ±%d%%)\n",
		res, name(t.own), verdict, residualLimitPct)
	fmt.Fprintf(w, "overhead: traced %.0f refs/s vs untraced %.0f refs/s (%+.2f%% time per ref)\n",
		refs/h.traced.secs, float64(h.untraced.refs)/h.untraced.secs, figs["trace.overhead_pct"])
}
