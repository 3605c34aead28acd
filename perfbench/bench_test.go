package main

import (
	"io"
	"math"
	"strings"
	"testing"

	"memories/internal/bus"
	"memories/internal/tracefile"
)

// miniScale runs every workload in well under a second.
var miniScale = scale{
	warmRefs:    20_000,
	chunkRefs:   512,
	traceRecs:   30_000,
	ingestWarm:  20,
	minSteps:    30,
	countsAt:    10,
	setupRepeat: 2,
}

func miniOptions(t *testing.T, workload string, trace bool) options {
	return options{
		workload: workload,
		seed:     7,
		seconds:  0.2,
		trace:    trace,
		workDir:  t.TempDir(),
		spansDir: t.TempDir(),
		scale:    miniScale,
	}
}

func TestWorkloadsPassAtMiniatureSize(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o := miniOptions(t, w.name, trace)
			out, err := execute(o, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < int64(miniScale.minSteps) {
				t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d", w.name, trace, out.Correct, out.Failed, out.Attempted)
			}
			want := len(endToEndUnits)
			if trace {
				want = len(perLayerMetrics)
			}
			if len(out.Metrics) != want {
				t.Fatalf("%s trace=%v: %d metrics, want %d", w.name, trace, len(out.Metrics), want)
			}
			if !trace {
				for name, m := range out.Metrics {
					if !(m.Value > 0) {
						t.Errorf("%s: %s = %v, want > 0", w.name, name, m.Value)
					}
				}
			}
		}
	}
}

// timedRunner sets a workload up at miniature size and runs its timed
// phase, returning the runner ready for check.
func timedRunner(t *testing.T, workload string) runner {
	t.Helper()
	o := miniOptions(t, workload, false)
	for _, w := range workloads {
		if w.name == workload {
			r, err := w.setup(o)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(r.close)
			if err := newHarness(o).timed(r); err != nil {
				t.Fatal(err)
			}
			return r
		}
	}
	t.Fatalf("no workload %q", workload)
	return nil
}

// failing returns the names of the failed checks.
func failing(cs []check) []string {
	var out []string
	for _, c := range cs {
		if !c.ok {
			out = append(out, c.name)
		}
	}
	return out
}

// requireCaught fails unless a failed check's name contains each part.
func requireCaught(t *testing.T, cs []check, parts ...string) {
	t.Helper()
	failed := failing(cs)
	for _, p := range parts {
		found := false
		for _, f := range failed {
			found = found || strings.Contains(f, p)
		}
		if !found {
			t.Errorf("no failed check mentions %q; failed: %v", p, failed)
		}
	}
}

func TestChecksPassUnperturbed(t *testing.T) {
	for _, w := range workloads {
		if f := failing(timedRunner(t, w.name).check()); len(f) > 0 {
			t.Errorf("%s: failed checks %v", w.name, f)
		}
	}
}

func TestBoardCounterPerturbationCaught(t *testing.T) {
	r := timedRunner(t, "oltp-8way").(*oltp)
	r.b.Counters().Counter("nodec.write.miss").Inc()
	requireCaught(t, r.check(), "node c write misses")
}

func TestExtraBoardRecordCaught(t *testing.T) {
	r := timedRunner(t, "oltp-64way").(*oltp)
	tx := bus.Transaction{Cmd: bus.Read, Addr: 1 << 40, Size: lineBytes, SrcID: 3, Cycle: r.b.LastCycle() + 1}
	r.b.Snoop(&tx)
	r.b.Flush()
	requireCaught(t, r.check(), "board accepted + filtered = bus.tx", "node a read misses")
}

func TestDroppedTraceRecordCaught(t *testing.T) {
	// The runner counts one more record than it gave the simulator: the
	// simulator's stream has one record dropped.
	r := timedRunner(t, "trace-replay").(*traceReplay)
	r.emitted++
	requireCaught(t, r.check(), "processed + filtered", "TraceSim node")
}

func TestDroppedIngestRecordCaught(t *testing.T) {
	// The client claims one more record than the session applied.
	r := timedRunner(t, "trace-ingest").(*traceIngest)
	r.posted++
	requireCaught(t, r.check(), "session ingested", "session node")
}

func TestReferenceModelSeesADroppedRecord(t *testing.T) {
	stream, err := packedStream(3, 5000)
	if err != nil {
		t.Fatal(err)
	}
	for _, drop := range []int{0, 1234, len(stream) - 1} {
		full := newRefModel(traceCacheBytes/64, lineBytes, boardAssoc)
		short := newRefModel(traceCacheBytes/64, lineBytes, boardAssoc)
		for i, v := range stream {
			r := tracefile.Unpack(v)
			full.access(r.Cmd, r.Addr)
			if i != drop {
				short.access(r.Cmd, r.Addr)
			}
		}
		if f := failing(compareNode("n", short.counts, full.counts, nil)); len(f) == 0 {
			t.Errorf("dropping record %d went unnoticed", drop)
		}
	}
}

func TestReferenceModelLRU(t *testing.T) {
	// One set of a 2-way cache: after a, b, a the line c evicts b (least
	// recently used), then b evicts a and a evicts c.
	m := newRefModel(256, 128, 2)
	a, b, c := uint64(0), uint64(128), uint64(256)
	for _, x := range []uint64{a, b, a, c, b, a} {
		m.access(bus.Read, x)
	}
	want := nodeCounts{ReadHit: 1, ReadMiss: 5, Evictions: 3, Resident: 2}
	if m.counts != want {
		t.Fatalf("counts %+v, want %+v", m.counts, want)
	}
}

func TestTracerSelfTime(t *testing.T) {
	// A step of 100 ns holds Run (80) and Flush (10); Run holds Next and
	// Snoop, each sampled on a share of its calls.
	tr := &tracer{}
	set := func(l layer, total float64, calls, sampled uint64) {
		tr.total[l], tr.calls[l], tr.sampled[l] = total, calls, sampled
	}
	set(lStep, 100, 1, 1)
	set(lRun, 80, 1, 1)
	set(lFlush, 10, 1, 1)
	set(lNext, 5, 4, 1)   // estimated 20
	set(lSnoop, 10, 4, 2) // estimated 20
	self := tr.self()
	want := map[layer]float64{lStep: 10, lRun: 40, lFlush: 10, lNext: 20, lSnoop: 20}
	var sum float64
	for l, w := range want {
		if self[l] != w {
			t.Errorf("%s self = %v, want %v", layerNames[l], self[l], w)
		}
		sum += self[l]
	}
	if sum != 100 {
		t.Errorf("self times sum to %v, want the step's 100", sum)
	}
}

func TestUncoveredStepTimeCaught(t *testing.T) {
	// Steps of 100 ns each hold a wrapped call: the time outside it is
	// the residual, and beyond the stated limit the run fails a check.
	for _, c := range []struct {
		run  float64
		pass bool
	}{{99, true}, {91, true}, {85, false}, {50, false}} {
		h := &harness{tr: &tracer{}}
		h.tr.total[lStep], h.tr.calls[lStep], h.tr.sampled[lStep] = 100, 1, 1
		h.tr.total[lRun], h.tr.calls[lRun], h.tr.sampled[lRun] = c.run, 1, 1
		h.untraced = phase{refs: 1, secs: 1e-7}
		h.traced = phase{refs: 1, secs: 1e-7}
		res := h.traceFigures()["trace.residual_pct"]
		if want := 100 - c.run; math.Abs(res-want) > 1e-9 {
			t.Errorf("run %v of 100: residual %v%%, want %v%%", c.run, res, want)
		}
		if got := residualCheck(res).ok; got != c.pass {
			t.Errorf("run %v of 100: residual check passes = %v, want %v", c.run, got, c.pass)
		}
	}
}
