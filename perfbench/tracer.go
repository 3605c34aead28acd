package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// layer identifies the call a span wraps.
type layer uint8

const (
	lStep      layer = iota // one step, as the harness times it
	lRun                    // host.Host.Run
	lNext                   // workload.Generator.Next (sampled)
	lSnoop                  // core.Board.Snoop through the bus.Snooper wrapper (sampled)
	lFlush                  // core.Board.Flush
	lEmit                   // the benchmark's tracefile.ForEachBatchFile emit callback
	lProcess                // simbase.TraceSim.ProcessBatch
	lPost                   // HTTP POST of one trace block to service.Server
	lApplyWait              // HTTP stats polls until the block is applied
	numLayers
)

// parentOf is the fixed call nesting: a layer's self time is its own
// time less that of the layers nested in it.
var parentOf = [numLayers]layer{
	lStep:      lStep,
	lRun:       lStep,
	lNext:      lRun,
	lSnoop:     lRun,
	lFlush:     lStep,
	lEmit:      lStep,
	lProcess:   lEmit,
	lPost:      lStep,
	lApplyWait: lStep,
}

var layerNames = [numLayers]string{
	lStep:      "bench.step",
	lRun:       "host.Run",
	lNext:      "workload.Next",
	lSnoop:     "core.Snoop",
	lFlush:     "core.Flush",
	lEmit:      "bench.emit",
	lProcess:   "simbase.ProcessBatch",
	lPost:      "service.POST",
	lApplyWait: "service.apply_wait",
}

// sampleEvery is the mean sampling interval for calls shorter than a
// timer read: one call in sampleEvery is timed, and its layer's total is
// scaled up by calls/sampled.
const sampleEvery = 64

// maxSpans bounds the spans kept in memory; beyond it spans still count
// toward the layer totals but are not written out.
const maxSpans = 1 << 20

// span is one timed call. All spans of one step share id; parent is the
// index of the enclosing span, or -1.
type span struct {
	id     uint32
	layer  layer
	parent int32
	start  int64 // ns since the tracer started
	end    int64
}

type openSpan struct {
	layer layer
	start int64
	idx   int32
}

// tracer records spans around the calls into each layer. It is used by
// one goroutine.
type tracer struct {
	t0       time.Time
	enabled  bool
	stepName string // what a step's own time is, per workload
	// own is the layer whose self time is the benchmark's own: the time
	// in a step that no wrapped public call covers.
	own   layer
	step  uint32
	spans []span
	stack []openSpan
	// timerNs is the cost of one clock read; it is taken off every
	// sampled span and counted as instrumentation.
	timerNs float64
	rng     uint64

	total   [numLayers]float64 // summed durations (sampled layers: of samples only)
	calls   [numLayers]uint64  // calls made while tracing
	sampled [numLayers]uint64  // calls timed
	reads   uint64             // clock reads made for spans
}

func newTracer(seed uint64) *tracer {
	t := &tracer{t0: time.Now(), stepName: layerNames[lStep], rng: seed | 1}
	t.timerNs = t.calibrate()
	return t
}

// calibrate returns the median cost of one clock read.
func (t *tracer) calibrate() float64 {
	const n = 2001
	ds := make([]float64, n)
	for i := range ds {
		a := t.now()
		b := t.now()
		ds[i] = float64(b - a)
	}
	return median(ds)
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// on reports whether spans are being recorded; t may be nil.
func (t *tracer) on() bool { return t != nil && t.enabled }

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(l layer) {
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].idx
	}
	s := t.now()
	t.reads++
	idx := int32(-1)
	if len(t.spans) < maxSpans {
		idx = int32(len(t.spans))
		t.spans = append(t.spans, span{id: t.step, layer: l, parent: parent, start: s})
	}
	t.stack = append(t.stack, openSpan{layer: l, start: s, idx: idx})
}

// end closes the innermost open span.
func (t *tracer) end() {
	e := t.now()
	t.reads++
	o := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	if o.idx >= 0 {
		t.spans[o.idx].end = e
	}
	t.total[o.layer] += float64(e - o.start)
	t.calls[o.layer]++
	t.sampled[o.layer]++
}

// skip draws the number of calls until the next sample: uniform on
// [1, 2*sampleEvery-1], so the mean interval is sampleEvery and no
// periodic pattern in the call stream can line up with it.
func (t *tracer) skip() int {
	t.rng ^= t.rng << 13
	t.rng ^= t.rng >> 7
	t.rng ^= t.rng << 17
	return 1 + int(t.rng%(2*sampleEvery-1))
}

// sample records one timed short call as a leaf span.
func (t *tracer) sample(l layer, s, e int64) {
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].idx
	}
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{id: t.step, layer: l, parent: parent, start: s, end: e})
	}
	d := float64(e-s) - t.timerNs
	if d < 0 {
		d = 0
	}
	t.total[l] += d
	t.sampled[l]++
	t.reads += 2
}

// estimate returns a layer's total time, scaling sampled layers up to
// every call.
func (t *tracer) estimate(l layer) float64 {
	if t.sampled[l] == 0 {
		return 0
	}
	return t.total[l] * float64(t.calls[l]) / float64(t.sampled[l])
}

// self returns each layer's time less that of the layers nested in it.
func (t *tracer) self() [numLayers]float64 {
	var s [numLayers]float64
	for l := layer(0); l < numLayers; l++ {
		s[l] += t.estimate(l)
		if l != lStep {
			s[parentOf[l]] -= t.estimate(l)
		}
	}
	return s
}

// instrumentationNs estimates the time the clock reads themselves took.
func (t *tracer) instrumentationNs() float64 { return float64(t.reads) * t.timerNs }

// write dumps the spans as tab-separated text, one per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# step_name=%s timer_ns=%.1f sample_every=%d\n", t.stepName, t.timerNs, sampleEvery)
	fmt.Fprintln(w, "step\tlayer\tparent\tstart_ns\tend_ns")
	for _, s := range t.spans {
		name := layerNames[s.layer]
		if s.layer == lStep {
			name = t.stepName
		}
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\n", s.id, name, s.parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rows returns the layers with time, largest self time first.
func (t *tracer) rows() []layer {
	var ls []layer
	self := t.self()
	for l := layer(0); l < numLayers; l++ {
		if t.calls[l] > 0 {
			ls = append(ls, l)
		}
	}
	sort.Slice(ls, func(i, j int) bool { return self[ls[i]] > self[ls[j]] })
	return ls
}

// setStepLayer is for a workload whose step is itself a public call: it
// names what the step's own time is, and which layer then holds the
// time no wrapped call covers. t may be nil.
func (t *tracer) setStepLayer(name string, own layer) {
	if t != nil {
		t.stepName, t.own = name, own
	}
}
