package target

import (
	"sync/atomic"
	"unsafe"
)

// pipe is the cycle-accounting model: a register scoreboard plus each
// machine's issue discipline. It charges the stalls the paper's
// machines exhibit — the R4400 load-use interlock, SuperSPARC result
// latencies, 601 dual dispatch with branch folding, and Pentium U/V
// pairing with AGI stalls — without modelling caches (EXPERIMENTS.md
// measures a perfect-memory pipeline).
//
// Everything the model needs to know about an instruction is static,
// so it is worked out once per program (predecode) and issue charges
// an instruction from its issueFact with a few array reads.
type pipe struct {
	clock uint64
	// avail[s] is the cycle scoreboard slot s becomes usable: slots
	// 0..63 are the registers, noSlot is never written (an absent
	// operand is always ready), flagSlot is the latched compare, and
	// sinkSlot absorbs results no instruction reads.
	avail [numSlots]uint64
	// slot counts issue slots consumed in the current cycle on the
	// multi-issue machines.
	slot  int
	width int
}

const (
	noSlot   = 64
	flagSlot = 65
	sinkSlot = 66
	numSlots = 67
)

func (p *pipe) init(m *Machine) { p.width = m.IssueWidth }

// issueClass is an instruction's issue discipline on its machine.
type issueClass uint8

const (
	// issueAlone closes an open pair and takes the whole cycle (plus
	// one more for the Pentium read-modify-write form): every
	// instruction on the single-issue machines, and the unpairable
	// Pentium forms (FP, multiply, divide, MemDst).
	issueAlone issueClass = iota
	// issuePair takes one of the machine's issue slots in the current
	// cycle: the 601's dispatch, the Pentium's pairable instructions.
	issuePair
	// issueFolded consumes no slot: the 601 folds branches out of the
	// dispatch stream.
	issueFolded
	// issueUOnly closes an open pair and takes the Pentium U pipe,
	// leaving V free: shifts and the load-op MemSrc form.
	issueUOnly
	// issueEndPair pairs in the Pentium V pipe and ends the pair:
	// branches and jumps.
	issueEndPair
)

// Bits of issueFact.bits. factAGI is bit 0 so its value is the AGI
// penalty in cycles.
const (
	factAGI   = 1 << 0 // the address base register's producer adds a cycle
	factExtra = 1 << 1 // one extra issue cycle (Pentium MemDst)
	factCtl   = 1 << 2 // control transfer (conditional branch or jump)
)

// issueFact is one instruction's static issue facts on one machine.
type issueFact struct {
	// src are the scoreboard slots the instruction waits on: rs1, rs2,
	// and the store value (the Pentium's store buffer picks it up after
	// issue, so not there) or, for Bcc/FBcc, the latched compare.
	src [3]uint8
	// agi is the Pentium address base register (rs1, or rs2 for the
	// MemSrc form); noSlot elsewhere.
	agi uint8
	// dst is the slot the result lands in: the destination register,
	// flagSlot for compares, sinkSlot for none.
	dst   uint8
	lat   uint8 // cycles from issue until dst is usable
	class issueClass
	bits  uint8
}

// PredecodeBytesPerInst is the memory one instruction's predecoded
// issue facts take, for callers that budget the memory of programs
// they keep.
const PredecodeBytesPerInst = 8

// issue charges one instruction: stall until its operands are ready,
// consume an issue slot per the machine's discipline, and record when
// its result will be available.
func (p *pipe) issue(f *issueFact) {
	ready := p.clock
	if a := p.avail[f.src[0]]; a > ready {
		ready = a
	}
	if a := p.avail[f.src[1]]; a > ready {
		ready = a
	}
	if a := p.avail[f.src[2]]; a > ready {
		ready = a
	}
	if a := p.avail[f.agi] + uint64(f.bits&factAGI); a > ready {
		ready = a
	}
	if ready > p.clock {
		p.clock = ready
		p.slot = 0
	}

	at := p.clock
	switch f.class {
	case issueAlone:
		if p.slot > 0 {
			at++
			p.slot = 0
		}
		p.clock = at + 1 + uint64(f.bits&factExtra>>1)
	case issuePair:
		p.slot++
		if p.slot >= p.width {
			p.clock++
			p.slot = 0
		}
	case issueUOnly:
		if p.slot > 0 {
			at++
			p.clock = at
		}
		p.slot = 1
	case issueEndPair:
		p.clock++
		p.slot = 0
	}
	p.avail[f.dst] = at + uint64(f.lat)
}

// costModel is what a machine's issue facts depend on besides the
// code: the parts of the Machine the pipeline charges by.
type costModel struct {
	lat     [NumOps]uint8
	pairing bool
	folding bool
	multi   bool
}

func costModelOf(m *Machine) costModel {
	c := costModel{pairing: m.Pairing, folding: m.BranchFolding, multi: m.IssueWidth > 1}
	for op := Op(0); op < NumOps; op++ {
		lat := 1
		if m.Latency != nil {
			lat = m.Latency(op)
		}
		if lat < 0 || lat > 255 {
			panic("target: " + m.Name + " latency of " + op.String() + " outside 0..255")
		}
		c.lat[op] = uint8(lat)
	}
	return c
}

// regSlot is r's scoreboard slot; absent operands read noSlot.
func regSlot(r Reg) uint8 {
	if r < 0 || r >= noSlot {
		return noSlot
	}
	return uint8(r)
}

// predecodeInst works out in's issue facts under cost model c.
func predecodeInst(in *Inst, c *costModel) issueFact {
	op := in.Op
	f := issueFact{
		src: [3]uint8{regSlot(in.Rs1), regSlot(in.Rs2), noSlot},
		agi: noSlot,
		dst: sinkSlot,
		lat: c.lat[op],
	}
	ctl := op.IsBranch() || op.IsJump()
	if ctl {
		f.bits |= factCtl
	}
	switch {
	case op.IsStore() && !c.pairing:
		f.src[2] = regSlot(in.Rd)
	case op == Bcc || op == FBcc:
		f.src[2] = flagSlot
	}
	if c.pairing && (op.IsLoad() || op.IsStore() || op == Lea || in.MemSrc) {
		base := in.Rs1
		if in.MemSrc {
			base = in.Rs2
		}
		if f.agi = regSlot(base); f.agi != noSlot {
			f.bits |= factAGI
		}
	}

	switch {
	case c.pairing:
		switch {
		case in.MemSrc:
			f.class = issueUOnly
		case in.MemDst || !pentiumPairable(op):
			f.class = issueAlone
			if in.MemDst {
				f.bits |= factExtra
			}
		case pentiumUOnly(op):
			f.class = issueUOnly
		case ctl:
			f.class = issueEndPair
		default:
			f.class = issuePair
		}
	case c.multi:
		f.class = issuePair
		if c.folding && ctl {
			f.class = issueFolded
		}
	default:
		f.class = issueAlone
	}

	switch op {
	case Cmp, CmpI, CmpUI, Fcmp:
		// On the branch-folding 601 the CR result forwards straight to
		// the fold stage; elsewhere the branch sees it a cycle later.
		f.dst = flagSlot
		if c.folding {
			f.lat = 0
		}
	default:
		if r := regSlot(in.Rd); r != noSlot && !op.IsStore() {
			f.dst = r
		}
	}
	return f
}

// issueTable is a program's predecoded issue facts under one cost
// model, with the identity of the code it was built from.
type issueTable struct {
	code  *Inst
	n     int
	cost  costModel
	facts []issueFact
}

// issueFacts returns p's issue facts on m, one per instruction of
// p.Code. The table is built on first use and published atomically,
// so concurrent runs of one program share it; a table built from
// different code (a copy of the Program with its own Code) or for a
// different cost model is rebuilt, never reused.
func (p *Program) issueFacts(m *Machine) []issueFact {
	c := costModelOf(m)
	var code *Inst
	if len(p.Code) > 0 {
		code = &p.Code[0]
	}
	t := (*issueTable)(atomic.LoadPointer(&p.issue))
	if t != nil && t.code == code && t.n == len(p.Code) && t.cost == c {
		return t.facts
	}
	t = &issueTable{code: code, n: len(p.Code), cost: c, facts: make([]issueFact, len(p.Code))}
	for i := range p.Code {
		t.facts[i] = predecodeInst(&p.Code[i], &c)
	}
	atomic.StorePointer(&p.issue, unsafe.Pointer(t))
	return t.facts
}

// pentiumPairable: the simple one-cycle integer instructions.
func pentiumPairable(op Op) bool {
	switch op {
	case Nop, Add, Sub, And, Or, Xor, Slt, Sltu,
		AddI, AndI, OrI, XorI, SltI, SltuI,
		Sll, Srl, Sra, SllI, SrlI, SraI,
		MovI, Mov, Lui, Lea, Neg,
		Lb, Lbu, Lh, Lhu, Lw,
		Sb, Sh, Sw,
		Cmp, CmpI, CmpUI:
		return true
	}
	return op.IsBranch() || op.IsJump()
}

// pentiumUOnly: shifts only issue in the U pipe.
func pentiumUOnly(op Op) bool {
	switch op {
	case Sll, Srl, Sra, SllI, SrlI, SraI:
		return true
	}
	return false
}
