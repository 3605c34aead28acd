package main

import (
	"fmt"
	"math/bits"

	"memories/internal/bus"
)

// refModel is the benchmark's own model of one emulated node: a
// set-associative LRU presence array. It knows nothing of the board's
// packed words, protocol engine or SDRAM timing; it only encodes what a
// MESI node with one node per snoop group must do — every read, write
// and castout of a line looks the line up, counts a hit or a miss,
// makes it most recently used, and on a miss allocates it over the
// least recently used way. Its counts must equal the program's exactly.
type refModel struct {
	lineShift uint
	setMask   uint64
	assoc     int
	lines     []uint64 // sets*assoc line numbers + 1; 0 is an empty way
	stamps    []uint64 // last-use clock per way
	clock     uint64
	counts    nodeCounts
}

// nodeCounts are one node's reference classification counts.
type nodeCounts struct {
	ReadHit, ReadMiss   uint64
	WriteHit, WriteMiss uint64
	CastHit, CastMiss   uint64
	Evictions           uint64
	Resident            uint64
}

func newRefModel(sizeBytes, lineBytes int64, assoc int) *refModel {
	sets := sizeBytes / lineBytes / int64(assoc)
	if sets <= 0 || sets&(sets-1) != 0 || lineBytes&(lineBytes-1) != 0 {
		panic(fmt.Sprintf("refmodel: unsupported geometry %d/%d/%d", sizeBytes, lineBytes, assoc))
	}
	return &refModel{
		lineShift: uint(bits.TrailingZeros64(uint64(lineBytes))),
		setMask:   uint64(sets - 1),
		assoc:     assoc,
		lines:     make([]uint64, sets*int64(assoc)),
		stamps:    make([]uint64, sets*int64(assoc)),
	}
}

// opKind classifies a bus command the way a 6xx cache controller sees
// it; the model is written from the bus protocol, not from the board.
type opKind uint8

const (
	opNone opKind = iota
	opRead
	opWrite
	opCastout
)

func kindOf(cmd bus.Command) opKind {
	switch cmd {
	case bus.Read:
		return opRead
	case bus.RWITM, bus.DClaim, bus.Flush:
		return opWrite
	case bus.Castout, bus.Clean:
		return opCastout
	}
	return opNone
}

// access applies one bus transaction from a CPU the node owns.
func (m *refModel) access(cmd bus.Command, addr uint64) {
	k := kindOf(cmd)
	if k == opNone {
		return
	}
	line := addr>>m.lineShift + 1
	base := int(((line - 1) & m.setMask) * uint64(m.assoc))
	ways := m.lines[base : base+m.assoc]
	stamps := m.stamps[base : base+m.assoc]
	m.clock++
	hit := false
	for w, l := range ways {
		if l == line {
			stamps[w] = m.clock
			hit = true
			break
		}
	}
	if !hit {
		victim := 0
		for w := range ways {
			if ways[w] == 0 {
				victim = w
				break
			}
			if stamps[w] < stamps[victim] {
				victim = w
			}
		}
		if ways[victim] == 0 {
			m.counts.Resident++
		} else {
			m.counts.Evictions++
		}
		ways[victim] = line
		stamps[victim] = m.clock
	}
	c := &m.counts
	switch {
	case k == opRead && hit:
		c.ReadHit++
	case k == opRead:
		c.ReadMiss++
	case k == opWrite && hit:
		c.WriteHit++
	case k == opWrite:
		c.WriteMiss++
	case hit:
		c.CastHit++
	default:
		c.CastMiss++
	}
}

// compareNode checks the program's counts for one node against the
// model's, except the fields named in skip, which that program does not
// expose.
func compareNode(name string, got, want nodeCounts, skip map[string]bool) []check {
	fields := []struct {
		f    string
		g, w uint64
	}{
		{"read hits", got.ReadHit, want.ReadHit},
		{"read misses", got.ReadMiss, want.ReadMiss},
		{"write hits", got.WriteHit, want.WriteHit},
		{"write misses", got.WriteMiss, want.WriteMiss},
		{"castout hits", got.CastHit, want.CastHit},
		{"castout misses", got.CastMiss, want.CastMiss},
		{"evictions", got.Evictions, want.Evictions},
		{"resident lines", got.Resident, want.Resident},
	}
	var out []check
	for _, f := range fields {
		if skip[f.f] {
			continue
		}
		out = append(out, checkEq(name+" "+f.f+" = reference model", f.g, f.w))
	}
	return out
}
