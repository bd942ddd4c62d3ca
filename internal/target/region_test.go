package target

import (
	"errors"
	"math/rand"
	"testing"
	"unsafe"
)

// randomRegion returns straight-line code whose one region is the
// whole program: plain instructions over a few registers (so results
// feed later operands), optionally ended by a control transfer and,
// on the delay-slot machines, its slot.
func randomRegion(rng *rand.Rand, m *Machine) []Inst {
	ints := []Reg{1, 2, 3, 4, 5, 6}
	fps := []Reg{32, 33, 34}
	ir := func() Reg { return ints[rng.Intn(len(ints))] }
	fr := func() Reg { return fps[rng.Intn(len(fps))] }
	gen := func() Inst {
		switch rng.Intn(14) {
		case 0:
			return Inst{Op: Add, Rd: ir(), Rs1: ir(), Rs2: ir()}
		case 1:
			return Inst{Op: AddI, Rd: ir(), Rs1: ir(), Rs2: NoReg, Imm: 4}
		case 2:
			return Inst{Op: Mul, Rd: ir(), Rs1: ir(), Rs2: ir()}
		case 3:
			return Inst{Op: Div, Rd: ir(), Rs1: ir(), Rs2: ir()}
		case 4:
			return Inst{Op: Lw, Rd: ir(), Rs1: ir(), Rs2: NoReg}
		case 5:
			return Inst{Op: Sw, Rd: ir(), Rs1: ir(), Rs2: NoReg}
		case 6:
			return Inst{Op: SllI, Rd: ir(), Rs1: ir(), Rs2: NoReg, Imm: 2}
		case 7:
			return Inst{Op: Lea, Rd: ir(), Rs1: ir(), Rs2: NoReg, Imm: 8}
		case 8:
			return Inst{Op: Cmp, Rd: NoReg, Rs1: ir(), Rs2: ir()}
		case 9:
			return Inst{Op: FaddD, Rd: fr(), Rs1: fr(), Rs2: fr()}
		case 10:
			return Inst{Op: FmulD, Rd: fr(), Rs1: fr(), Rs2: fr()}
		case 11:
			return Inst{Op: Ld, Rd: fr(), Rs1: ir(), Rs2: NoReg}
		case 12:
			if m.Pairing {
				return Inst{Op: Add, Rd: ir(), Rs1: ir(), Rs2: ir(), MemSrc: true}
			}
			return Inst{Op: Mov, Rd: ir(), Rs1: ir(), Rs2: NoReg}
		default:
			if m.Pairing {
				return Inst{Op: Add, Rd: NoReg, Rs1: ir(), Rs2: NoReg, MemDst: true}
			}
			return Inst{Op: MovI, Rd: ir(), Rs1: NoReg, Rs2: NoReg, Imm: 1}
		}
	}
	code := make([]Inst, 1+rng.Intn(20))
	for i := range code {
		code[i] = gen()
	}
	if rng.Intn(2) == 0 {
		ends := []Inst{
			{Op: Bcc, Rd: NoReg, Rs1: NoReg, Rs2: NoReg, CC: CCLt},
			{Op: Beq, Rd: NoReg, Rs1: ir(), Rs2: ir()},
			{Op: J, Rd: NoReg, Rs1: NoReg, Rs2: NoReg},
			{Op: Jr, Rd: NoReg, Rs1: ir(), Rs2: NoReg},
		}
		code = append(code, ends[rng.Intn(len(ends))])
		if m.HasDelaySlot {
			code = append(code, gen())
		}
	}
	return code
}

// randomPipe returns a pipeline state at a random clock whose
// scoreboard mixes long-ready slots, the boundary values clock-1,
// clock and clock+1 (where the Pentium's AGI penalty decides), pending
// results, and some too far ahead for a memo key.
func randomPipe(rng *rand.Rand, m *Machine) pipe {
	var p pipe
	p.init(m)
	p.clock = 1000 + uint64(rng.Intn(1000))
	p.slot = rng.Intn(2)
	for s := range p.avail {
		switch rng.Intn(8) {
		case 0:
			p.avail[s] = 0
		case 1:
			p.avail[s] = p.clock - 1 - uint64(rng.Intn(50))
		case 2:
			p.avail[s] = p.clock - 1
		case 3:
			p.avail[s] = p.clock
		case 4:
			p.avail[s] = p.clock + 1
		case 5:
			if rng.Intn(20) == 0 {
				p.avail[s] = p.clock + 300
				break
			}
			fallthrough
		default:
			p.avail[s] = p.clock + uint64(rng.Intn(40))
		}
	}
	p.avail[noSlot] = 0
	return p
}

// sameKey returns p shifted by d cycles with every scoreboard value at
// or below clock-1 replaced by another such value: a different state
// the memo must treat as the same.
func sameKey(rng *rand.Rand, p pipe, d uint64) pipe {
	q := p
	q.clock += d
	for s := range q.avail {
		if s == noSlot {
			continue
		}
		if p.avail[s]+1 <= p.clock {
			q.avail[s] = q.clock - 1 - uint64(rng.Intn(100))
		} else {
			q.avail[s] += d
		}
	}
	return q
}

func samePipe(a, b *pipe) bool {
	return a.clock == b.clock && a.slot == b.slot && a.avail == b.avail
}

// Property: charging a region, from its memo or not, leaves the clock,
// issue slot and scoreboard exactly as issuing its instructions one by
// one does, and states that differ only in ways the key ignores are
// charged from the same memo entry.
func TestMemoMatchesSequentialIssue(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, m := range Machines() {
		var hits int
		for iter := 0; iter < 400; iter++ {
			prog := &Program{Arch: m.Arch, Code: randomRegion(rng, m)}
			tb := prog.predecode(m)
			ri := tb.at[0]
			if ri < 0 || int(tb.regions[ri].end) != len(prog.Code) {
				t.Fatalf("%s: code %v is not one region: %+v", m.Name, prog.Code, tb.regions)
			}
			r := &tb.regions[ri]
			s := &Sim{M: m, Prog: prog}
			for trial := 0; trial < 8; trial++ {
				base := randomPipe(rng, m)
				for v, in := range []pipe{base, sameKey(rng, base, uint64(rng.Intn(5000)))} {
					want := in
					want.issueRange(tb.facts[r.start:r.end])
					ways := append([]unsafe.Pointer(nil), tb.memo[ri*memoWays:(ri+1)*memoWays]...)
					s.pipe = in
					s.charge(tb, ri, r)
					if !samePipe(&s.pipe, &want) {
						t.Fatalf("%s: code %v from clock %d slot %d: memo charge gave clock %d slot %d, sequential issue clock %d slot %d (or a different scoreboard)",
							m.Name, prog.Code, in.clock, in.slot, s.pipe.clock, s.pipe.slot, want.clock, want.slot)
					}
					if v == 0 {
						continue
					}
					// The variant has the base state's key: it must not
					// have added an entry.
					for w, p := range ways {
						if p != tb.memo[int(ri)*memoWays+w] {
							t.Fatalf("%s: code %v: a state with the same key missed the memo", m.Name, prog.Code)
						}
						if p != nil {
							hits++
							break
						}
					}
				}
			}
		}
		if hits < 1000 {
			t.Errorf("%s: only %d memo hits; the property barely exercised the memo", m.Name, hits)
		}
	}
}

// A region that would run past the budget is stepped one instruction
// at a time, so a run stops exactly where a purely per-instruction
// simulator stops: after the budgeted number of plain instructions.
func TestBudgetStopsInsideRegion(t *testing.T) {
	for _, m := range Machines() {
		a := m.Scratch[0]
		code := make([]Inst, 12, 13)
		for i := range code {
			code[i] = Inst{Op: AddI, Rd: a, Rs1: a, Rs2: NoReg, Imm: 1}
		}
		code = append(code, Inst{Op: Halt, Rd: NoReg, Rs1: NoReg, Rs2: NoReg})
		prog := &Program{Arch: m.Arch, Code: code}
		if tb := prog.predecode(m); tb.at[0] < 0 || tb.regions[tb.at[0]].end != 12 {
			t.Fatalf("%s: the twelve adds are not one region", m.Name)
		}
		for n := uint64(1); n <= 14; n++ {
			s := newTestSim(t, m, prog)
			s.MaxInsts = n
			res, err := s.Run()
			switch {
			case n <= 12:
				if !errors.Is(err, ErrBudget) || s.insts != n {
					t.Errorf("%s budget %d: err %v after %d instructions, want ErrBudget after %d", m.Name, n, err, s.insts, n)
				}
			case err != nil || res.Insts != 13:
				t.Errorf("%s budget %d: err %v after %d instructions, want a halt after 13", m.Name, n, err, res.Insts)
			}
		}
	}
}
