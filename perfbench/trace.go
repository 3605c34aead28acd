package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"memories/internal/addr"
	"memories/internal/bus"
	"memories/internal/cache"
	"memories/internal/coherence"
	"memories/internal/host"
	"memories/internal/simbase"
	"memories/internal/tracefile"
	"memories/internal/workload"
)

// traceCacheBytes is the emulated cache of trace-replay: 64 MB,
// 8-way, 128 B lines, MESI, shared by the eight CPUs of the stream.
const traceCacheBytes = 64 * addr.MB

// genStream runs the 8-way TPC-C host of oltp-8way with no board and
// hands its first n memory transactions, as trace records, to emit —
// what the board's trace-collection mode captures behind its address
// filter (§2.3).
func genStream(seed uint64, n int, emit func(tracefile.Record) error) error {
	h, err := host.New(oltp8.host(seed), workload.NewTPCC(oltp8.tpcc(seed)))
	if err != nil {
		return err
	}
	rec := &recorder{left: n, emit: emit}
	h.Bus().Attach(rec)
	for rec.left > 0 && rec.err == nil {
		if h.Run(4096) == 0 {
			return fmt.Errorf("trace: host stream ended: %v", h.Err())
		}
	}
	return rec.err
}

// recorder is a passive bus device that turns memory transactions into
// trace records until it has handed out its quota.
type recorder struct {
	left int
	emit func(tracefile.Record) error
	err  error
}

func (r *recorder) BusID() int { return -1 }

func (r *recorder) Snoop(tx *bus.Transaction) bus.SnoopResponse {
	if r.left > 0 && r.err == nil && tx.Cmd.IsMemoryOp() {
		r.left--
		r.err = r.emit(tracefile.FromTransaction(tx))
	}
	return bus.RespNull
}

// packedStream regenerates the trace stream into packed 8-byte records,
// for the checks.
func packedStream(seed uint64, n int) ([]uint64, error) {
	out := make([]uint64, 0, n)
	err := genStream(seed, n, func(r tracefile.Record) error {
		v, err := r.Pack()
		out = append(out, v)
		return err
	})
	return out, err
}

// feedModel applies the first n records of the stream, repeated as
// often as needed, to m, and returns how many of them were not memory
// operations.
func feedModel(m *refModel, stream []uint64, n uint64) (nonMemory uint64) {
	for i := uint64(0); i < n; i++ {
		r := tracefile.Unpack(stream[i%uint64(len(stream))])
		if !r.Cmd.IsMemoryOp() {
			nonMemory++
		}
		m.access(r.Cmd, r.Addr)
	}
	return nonMemory
}

// traceReplay is the tracesim path: a v2 trace file decoded by
// tracefile.ForEachBatchFile into simbase.TraceSim. One step is one
// window of decode workers' batches.
type traceReplay struct {
	path      string
	seed      uint64
	recs      int // records in the stream, and in the file
	workers   int
	sim       *simbase.TraceSim
	emitted   uint64 // records handed to ProcessBatch, warm-up included
	badPasses int    // whole passes whose record count was wrong
}

// errStop ends a trace pass early when the timed phase is over.
var errStop = errors.New("perfbench: stop")

func setupTraceReplay(o options) (runner, error) {
	path := filepath.Join(o.workDir, "tpcc8.v2")
	if err := writeTrace(path, o.seed, o.scale.traceRecs); err != nil {
		return nil, err
	}
	g, err := addr.NewGeometry(traceCacheBytes, lineBytes, boardAssoc)
	if err != nil {
		return nil, err
	}
	sim, err := simbase.NewTraceSim([]simbase.TraceNodeConfig{{
		CPUs:     []int{0, 1, 2, 3, 4, 5, 6, 7},
		Geometry: g,
		Policy:   cache.LRU,
		Protocol: coherence.MESI(),
	}})
	if err != nil {
		return nil, err
	}
	r := &traceReplay{
		path:    path,
		seed:    o.seed,
		recs:    o.scale.traceRecs,
		workers: runtime.GOMAXPROCS(0),
		sim:     sim,
	}
	// Warm the simulator's directory with one whole pass.
	n, err := tracefile.ForEachBatchFile(path, r.workers, func(recs []tracefile.Record) error {
		sim.ProcessBatch(recs)
		r.emitted += uint64(len(recs))
		return nil
	})
	if err != nil {
		return nil, err
	}
	if n != uint64(r.recs) {
		r.badPasses++
	}
	return r, nil
}

// writeTrace writes the first n records of the stream as one v2 file, in
// blocks of the writer's default size.
func writeTrace(path string, seed uint64, n int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w, err := tracefile.NewV2Writer(f)
	if err == nil {
		err = genStream(seed, n, w.Write)
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func (r *traceReplay) run(tr *tracer, stop func() bool, done func(uint64)) error {
	tr.setStepLayer("tracefile.ForEachBatchFile", lEmit)
	for !stop() {
		batches := 0
		var window uint64
		n, err := tracefile.ForEachBatchFile(r.path, r.workers, func(recs []tracefile.Record) error {
			if tr.on() {
				tr.begin(lEmit)
				tr.begin(lProcess)
				r.sim.ProcessBatch(recs)
				tr.end()
				tr.end()
			} else {
				r.sim.ProcessBatch(recs)
			}
			r.emitted += uint64(len(recs))
			window += uint64(len(recs))
			if batches++; batches%r.workers == 0 {
				done(window)
				window = 0
				if stop() {
					return errStop
				}
			}
			return nil
		})
		if window > 0 {
			done(window)
		}
		if errors.Is(err, errStop) {
			return nil
		}
		if err != nil {
			return err
		}
		if n != uint64(r.recs) {
			r.badPasses++
		}
	}
	return nil
}

func (r *traceReplay) counts() map[string]float64 {
	return map[string]float64{"simbase.miss_ratio": r.sim.NodeStats(0).MissRatio()}
}

func (r *traceReplay) layers(tr *tracer, refs uint64) map[string]float64 {
	return map[string]float64{
		"tracefile.decode_ns_per_rec": tr.self()[lStep] / float64(refs),
		"simbase.process_ns_per_rec":  tr.estimate(lProcess) / float64(refs),
	}
}

func (r *traceReplay) check() []check {
	cs := []check{
		checkEq("records emitted = TraceSim processed + filtered", r.emitted, r.sim.Processed+r.sim.Filtered),
		checkEq("whole passes with a wrong record count", uint64(r.badPasses), 0),
	}
	stream, err := packedStream(r.seed, r.recs)
	if err != nil {
		return append(cs, check{name: "regenerate stream", detail: err.Error()})
	}
	m := newRefModel(traceCacheBytes, lineBytes, boardAssoc)
	nonMem := feedModel(m, stream, r.emitted)
	cs = append(cs, checkEq("TraceSim filtered = non-memory records", r.sim.Filtered, nonMem))
	st := r.sim.NodeStats(0)
	got := nodeCounts{
		ReadHit: st.ReadHit, ReadMiss: st.ReadMiss,
		WriteHit: st.WriteHit, WriteMiss: st.WriteMiss,
		CastHit: st.Castouts, Evictions: st.Evictions,
	}
	want := m.counts
	want.CastHit += want.CastMiss // TraceSim counts castouts without a hit/miss split
	return append(cs, compareNode("TraceSim node", got, want,
		map[string]bool{"castout misses": true, "resident lines": true})...)
}

func (r *traceReplay) close() { _ = os.Remove(r.path) }
