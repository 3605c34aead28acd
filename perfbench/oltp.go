package main

import (
	"fmt"

	"memories/internal/addr"
	"memories/internal/bus"
	"memories/internal/cache"
	"memories/internal/coherence"
	"memories/internal/core"
	"memories/internal/host"
	"memories/internal/workload"
)

// tpccFactor scales the paper's 150 GB TPC-C database down to 75 MB, the
// factor the repository's experiments use at their ci and default scales.
const tpccFactor = 2048

// oltpShape is the host and board of one oltp workload.
type oltpShape struct {
	cpus    int
	nodesMB []int64 // one emulated node per size, each its own snoop group
	// chunkDiv divides the scale's step size, so that a step takes a few
	// milliseconds and a run of ten seconds holds over 1000 steps.
	chunkDiv uint64
}

// oltp8 is the paper's case study: an 8-way host with 1 MB direct-mapped
// L2s under a board evaluating four L3 sizes at once (§2.2).
var oltp8 = oltpShape{cpus: 8, nodesMB: []int64{2, 4, 8, 16}, chunkDiv: 1}

// oltp64 moves the work into the host: 64 CPUs snoop every bus
// transaction, and the board has one node.
var oltp64 = oltpShape{cpus: 64, nodesMB: []int64{16}, chunkDiv: 2}

const (
	boardAssoc = 8
	lineBytes  = 128
)

func setupOLTP8(o options) (runner, error)  { return newOLTP(o, oltp8) }
func setupOLTP64(o options) (runner, error) { return newOLTP(o, oltp64) }

func (s oltpShape) tpcc(seed uint64) workload.TPCCConfig {
	c := workload.ScaledTPCCConfig(tpccFactor)
	c.NumCPUs = s.cpus
	c.Seed = seed
	return c
}

func (s oltpShape) host(seed uint64) host.Config {
	c := host.DefaultConfig()
	c.NumCPUs = s.cpus
	c.L2Bytes = addr.MB
	c.L2Assoc = 1
	c.Seed = seed
	return c
}

func (s oltpShape) board() (core.Config, error) {
	cpus := make([]int, s.cpus)
	for i := range cpus {
		cpus[i] = i
	}
	var cfg core.Config
	for i, mb := range s.nodesMB {
		g, err := addr.NewGeometry(mb*addr.MB, lineBytes, boardAssoc)
		if err != nil {
			return cfg, err
		}
		cfg.Nodes = append(cfg.Nodes, core.NodeConfig{
			Name:     string(rune('a' + i)),
			CPUs:     cpus,
			Geometry: g,
			Policy:   cache.LRU,
			Protocol: coherence.MESI(),
			Group:    i,
		})
	}
	return cfg, nil
}

// oltp runs TPC-C references through the host into the board, one
// fixed-size Host.Run + Board.Flush chunk per step.
type oltp struct {
	shape     oltpShape
	seed      uint64
	chunk     uint64
	gen       workload.Generator
	h         *host.Host
	b         *core.Board
	traced    bool
	snoop     *timedSnooper
	requested uint64 // references asked of Host.Run, warm-up included
	short     int    // Run calls that returned fewer references than asked
}

func newOLTP(o options, s oltpShape) (*oltp, error) {
	bcfg, err := s.board()
	if err != nil {
		return nil, err
	}
	b, err := core.NewBoard(bcfg)
	if err != nil {
		return nil, err
	}
	gen := workload.NewTPCC(s.tpcc(o.seed))
	h, err := host.New(s.host(o.seed), gen)
	if err != nil {
		return nil, err
	}
	h.Bus().Attach(b)
	r := &oltp{shape: s, seed: o.seed, chunk: o.scale.chunkRefs / s.chunkDiv, gen: gen, h: h, b: b}
	// Warm the host caches and the emulated directories.
	r.requested = o.scale.warmRefs
	if n := h.Run(o.scale.warmRefs); n != o.scale.warmRefs {
		r.short++
	}
	b.Flush()
	return r, nil
}

func (r *oltp) run(tr *tracer, stop func() bool, done func(uint64)) error {
	for !stop() {
		if tr.on() != r.traced {
			r.setTraced(tr)
		}
		var n uint64
		if r.traced {
			tr.begin(lRun)
			n = r.h.Run(r.chunk)
			tr.end()
			tr.begin(lFlush)
			r.b.Flush()
			tr.end()
		} else {
			n = r.h.Run(r.chunk)
			r.b.Flush()
		}
		r.requested += r.chunk
		if n != r.chunk {
			r.short++
		}
		done(n)
	}
	return nil
}

// setTraced puts the timing wrappers between the host and its generator
// and between the bus and the board while tr is on, and takes them out
// while it is off.
func (r *oltp) setTraced(tr *tracer) {
	r.traced = tr.on()
	if r.traced {
		r.h.SetWorkload(&timedGen{Generator: r.gen, tr: tr, left: tr.skip()})
		r.snoop = &timedSnooper{b: r.b, tr: tr, left: tr.skip()}
		r.h.Bus().Detach(r.b)
		r.h.Bus().Attach(r.snoop)
		return
	}
	r.h.SetWorkload(r.gen)
	r.h.Bus().Detach(r.snoop)
	r.h.Bus().Attach(r.b)
}

func (r *oltp) counts() map[string]float64 {
	hs := r.h.Stats()
	bs := r.h.Bus().Stats()
	bank := r.b.Counters()
	m := map[string]float64{
		"host.l2_misses":         float64(hs.L2Misses),
		"host.upgrades":          float64(hs.Upgrades),
		"host.castouts":          float64(hs.Castouts),
		"host.retried":           float64(hs.Retried),
		"bus.tx":                 float64(bs.Transactions),
		"bus.busy_pct":           100 * r.h.Bus().Utilization(),
		"core.accepted":          float64(bank.Value("filter.accepted")),
		"core.filtered":          float64(filtered(bank.Value)),
		"core.retry_posted":      float64(bank.Value("buffer.retry-posted")),
		"core.buffer_high_water": float64(bank.Value("buffer.high-water")),
	}
	var stall, conflicts, resident uint64
	for i := 0; i < r.b.NumNodes(); i++ {
		v := r.b.Node(i)
		m["core."+v.Name+".miss_ratio"] = v.MissRatio()
		ts := r.b.TagStoreStats(i)
		stall += ts.StallCycles
		conflicts += ts.BankConflicts
		resident += uint64(r.b.DirectoryResident(i))
	}
	m["sdram.stall_cycles"] = float64(stall)
	m["sdram.bank_conflicts"] = float64(conflicts)
	m["cache.resident_lines"] = float64(resident)
	return m
}

// filtered is the board's count of transactions its address filter
// turned away: non-memory commands and unassigned bus IDs.
func filtered(value func(string) uint64) uint64 {
	return value("filter.rejected.io") + value("filter.rejected.other") + value("filter.unassigned")
}

func (r *oltp) layers(tr *tracer, refs uint64) map[string]float64 {
	self := tr.self()
	perRef := func(ns float64) float64 { return ns / float64(refs) }
	m := map[string]float64{
		"workload.next_ns":     perRef(tr.estimate(lNext)),
		"host.self_ns_per_ref": perRef(self[lRun]),
	}
	if tx := tr.calls[lSnoop]; tx > 0 {
		m["core.snoop_ns_per_tx"] = (tr.estimate(lSnoop) + tr.estimate(lFlush)) / float64(tx)
	}
	return m
}

func (r *oltp) check() []check {
	hs := r.h.Stats()
	bs := r.h.Bus().Stats()
	bank := r.b.Counters()
	issued := hs.L2Misses + hs.Upgrades + hs.Castouts + hs.IOOps + hs.Retried
	_, bad := r.h.CheckInclusion()
	cs := []check{
		checkEq("host refs run = refs requested", hs.Refs, r.requested),
		checkEq("short Host.Run chunks", uint64(r.short), 0),
		checkEq("host bus issues = bus.tx", issued, bs.Transactions),
		checkEq("board accepted + filtered = bus.tx", bank.Value("filter.accepted")+filtered(bank.Value), bs.Transactions),
		{name: "Host.CheckInclusion clean", ok: !bad, detail: "L1 line without L2 backing"},
		checkEq("core.retry_posted", bank.Value("buffer.retry-posted"), 0),
	}
	// Replay the same stream outside the timed phase into one reference
	// model per node, and compare every node.
	feed, err := r.replay()
	if err != nil {
		return append(cs, check{name: "replay", detail: err.Error()})
	}
	cs = append(cs, checkEq("replayed bus.tx = live bus.tx", feed.tx, bs.Transactions))
	for i, m := range feed.models {
		cs = append(cs, compareNode("node "+r.b.Node(i).Name, boardCounts(r.b, i), m.counts, nil)...)
	}
	return cs
}

// replay reruns the host alone from the same seed for the same number of
// references, feeding every bus transaction to the reference models.
func (r *oltp) replay() (*modelFeed, error) {
	h, err := host.New(r.shape.host(r.seed), workload.NewTPCC(r.shape.tpcc(r.seed)))
	if err != nil {
		return nil, err
	}
	feed := &modelFeed{}
	for _, mb := range r.shape.nodesMB {
		feed.models = append(feed.models, newRefModel(mb*addr.MB, lineBytes, boardAssoc))
	}
	h.Bus().Attach(feed)
	if n := h.Run(r.requested); n != r.requested {
		return nil, fmt.Errorf("replay ran %d of %d refs", n, r.requested)
	}
	return feed, nil
}

// boardCounts reads one node's classification counts from the board.
func boardCounts(b *core.Board, i int) nodeCounts {
	v := b.Node(i)
	bank := b.Counters()
	return nodeCounts{
		ReadHit: v.ReadHit, ReadMiss: v.ReadMiss,
		WriteHit: v.WriteHit, WriteMiss: v.WriteMiss,
		CastHit:   bank.Value("node" + v.Name + ".castout.absorbed"),
		CastMiss:  bank.Value("node" + v.Name + ".castout.allocated"),
		Evictions: v.Evictions,
		Resident:  uint64(b.DirectoryResident(i)),
	}
}

func (r *oltp) close() {}

// modelFeed is a passive bus device that hands every transaction to the
// reference models. Every CPU belongs to every node, so the models see
// the whole memory stream.
type modelFeed struct {
	models []*refModel
	tx     uint64
}

func (f *modelFeed) BusID() int { return -1 }

func (f *modelFeed) Snoop(tx *bus.Transaction) bus.SnoopResponse {
	f.tx++
	for _, m := range f.models {
		m.access(tx.Cmd, tx.Addr)
	}
	return bus.RespNull
}

// timedGen wraps the workload generator and times one Next call in
// sampleEvery.
type timedGen struct {
	workload.Generator
	tr   *tracer
	left int
}

func (g *timedGen) Next() (workload.Ref, bool) {
	g.tr.calls[lNext]++
	if g.left--; g.left > 0 {
		return g.Generator.Next()
	}
	g.left = g.tr.skip()
	s := g.tr.now()
	ref, ok := g.Generator.Next()
	g.tr.sample(lNext, s, g.tr.now())
	return ref, ok
}

// timedSnooper is a bus.Snooper wrapper around the board that times one
// Snoop call in sampleEvery and forwards the combined responses.
type timedSnooper struct {
	b    *core.Board
	tr   *tracer
	left int
}

func (s *timedSnooper) BusID() int { return s.b.BusID() }

func (s *timedSnooper) Snoop(tx *bus.Transaction) bus.SnoopResponse {
	s.tr.calls[lSnoop]++
	if s.left--; s.left > 0 {
		return s.b.Snoop(tx)
	}
	s.left = s.tr.skip()
	t0 := s.tr.now()
	resp := s.b.Snoop(tx)
	s.tr.sample(lSnoop, t0, s.tr.now())
	return resp
}

func (s *timedSnooper) ObserveResponse(tx *bus.Transaction, resp bus.SnoopResponse) {
	s.b.ObserveResponse(tx, resp)
}
