package target

import (
	"testing"

	"omniware/internal/hostapi"
)

func TestMachineDescriptors(t *testing.T) {
	ms := Machines()
	if len(ms) != 4 {
		t.Fatalf("want 4 machines, got %d", len(ms))
	}
	order := []string{"mips", "sparc", "ppc", "x86"}
	for i, m := range ms {
		if m.Name != order[i] {
			t.Errorf("machine %d: %q, want %q (paper order)", i, m.Name, order[i])
		}
		if ByName(m.Name) == nil {
			t.Errorf("ByName(%q) = nil", m.Name)
		}
		if m.IssueWidth < 1 {
			t.Errorf("%s: issue width %d", m.Name, m.IssueWidth)
		}
		if m.Latency == nil {
			t.Errorf("%s: no latency table", m.Name)
		}
		// Every OmniVM register image must be a valid physical register
		// or explicitly memory-resident; images must not collide with
		// the reserved SFI/scratch registers.
		reserved := map[Reg]bool{}
		for _, r := range []Reg{m.SFIAddr, m.SFIMask, m.SFIBase, m.CodeMask, m.GP, m.Scratch[0], m.Scratch[1]} {
			if r != NoReg {
				reserved[r] = true
			}
		}
		seen := map[Reg]bool{}
		for i, r := range m.OmniInt {
			if r == NoReg {
				continue
			}
			if r < 0 || r >= 32 {
				t.Errorf("%s: OmniInt[%d] = %d out of range", m.Name, i, r)
			}
			if reserved[r] {
				t.Errorf("%s: OmniInt[%d] = %d collides with a reserved register", m.Name, i, r)
			}
			if seen[r] && r != m.ZeroReg {
				t.Errorf("%s: OmniInt[%d] = %d mapped twice", m.Name, i, r)
			}
			seen[r] = true
		}
		for i, r := range m.OmniFP {
			if r != NoReg && (r < 32 || r >= 64) {
				t.Errorf("%s: OmniFP[%d] = %d outside the FP numbering", m.Name, i, r)
			}
		}
	}
	if ByName("vax") != nil {
		t.Error("ByName accepted an unknown machine")
	}
	// Fresh descriptors per call: mutating one must not leak.
	a, b := MIPSMachine(), MIPSMachine()
	a.MaxImm = 1
	if b.MaxImm == 1 {
		t.Error("Machines share state")
	}
}

func TestOpPredicates(t *testing.T) {
	for op := Nop; op < NumOps; op++ {
		n := 0
		for _, b := range []bool{op.IsBranch(), op.IsJump(), op.IsLoad(), op.IsStore()} {
			if b {
				n++
			}
		}
		if n > 1 {
			t.Errorf("%s: in multiple opcode classes", op)
		}
		if op.String() == "" {
			t.Errorf("op %d: empty name", op)
		}
	}
	for _, op := range []Op{Bcc, Beq, Bgez} {
		if !op.IsBranch() {
			t.Errorf("%s: not a branch", op)
		}
	}
	for _, op := range []Op{J, Jal, Jr, Jalr} {
		if !op.IsJump() {
			t.Errorf("%s: not a jump", op)
		}
	}
}

func TestFitsImm(t *testing.T) {
	m := MIPSMachine()
	for _, c := range []struct {
		v  int32
		ok bool
	}{{0, true}, {32767, true}, {-32768, true}, {32768, false}, {-32769, false}} {
		if got := m.FitsImm(c.v); got != c.ok {
			t.Errorf("FitsImm(%d) = %v, want %v", c.v, got, c.ok)
		}
	}
}

func TestRegSaveLayout(t *testing.T) {
	// Int slots are 4-byte, FP slots 8-byte starting after all 16 int
	// slots; no overlap.
	if IntSlotOffset(15)+4 > FPSlotOffset(0) {
		t.Errorf("int slots overlap FP slots: %d vs %d", IntSlotOffset(15), FPSlotOffset(0))
	}
	if FPSlotOffset(1)-FPSlotOffset(0) != 8 {
		t.Errorf("FP slot stride %d", FPSlotOffset(1)-FPSlotOffset(0))
	}
}

// charge runs insts through a machine's predecoded pipeline model and
// returns the cycle count including the final partially-filled issue
// slot.
func charge(m *Machine, insts []Inst) uint64 {
	var p pipe
	p.init(m)
	facts := (&Program{Arch: m.Arch, Code: insts}).issueFacts(m)
	for i := range facts {
		p.issue(&facts[i])
	}
	c := p.clock
	if p.slot > 0 {
		c++
	}
	return c
}

// ri builds a register-form instruction (NoReg for absent operands).
func ri(op Op, rd, rs1, rs2 Reg) Inst {
	return Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2}
}

type chargeCase struct {
	name  string
	insts []Inst
	want  uint64
}

func checkCharges(t *testing.T, m *Machine, cases []chargeCase) {
	t.Helper()
	for _, c := range cases {
		if got := charge(m, c.insts); got != c.want {
			t.Errorf("%s: %s took %d cycles, want %d", m.Name, c.name, got, c.want)
		}
	}
}

func TestPipelineLoadUseInterlock(t *testing.T) {
	checkCharges(t, MIPSMachine(), []chargeCase{
		{"load then use", []Inst{ri(Lw, 2, 29, NoReg), ri(Add, 3, 2, 2)}, 3},
		{"load then independent", []Inst{ri(Lw, 2, 29, NoReg), ri(Add, 3, 4, 4)}, 2},
		{"load then store of the value", []Inst{ri(Lw, 2, 29, NoReg), ri(Sw, 2, 29, NoReg)}, 3},
		{"mul then use", []Inst{ri(Mul, 2, 4, 5), ri(Add, 3, 2, 2)}, 5},
		{"div then use", []Inst{ri(Div, 2, 4, 5), ri(Add, 3, 2, 2)}, 13},
	})
}

func TestPipelineSPARCLatencies(t *testing.T) {
	checkCharges(t, SPARCMachine(), []chargeCase{
		{"load then use", []Inst{ri(Lw, 8, 14, NoReg), ri(Add, 9, 8, 8)}, 3},
		{"mul then use", []Inst{ri(Mul, 8, 9, 10), ri(Add, 11, 8, 8)}, 6},
		{"div then use", []Inst{ri(Div, 8, 9, 10), ri(Add, 11, 8, 8)}, 19},
		{"fmuld then use", []Inst{ri(FmulD, 32, 33, 34), ri(FaddD, 35, 32, 32)}, 5},
		{"fdivd then use", []Inst{ri(FdivD, 32, 33, 34), ri(FaddD, 35, 32, 32)}, 13},
		{"compare then branch", []Inst{ri(CmpI, NoReg, 8, NoReg), ri(Bcc, NoReg, NoReg, NoReg)}, 2},
		{"fdivd then store of the value", []Inst{ri(FdivD, 32, 33, 34), ri(Sd, 32, 14, NoReg)}, 13},
	})
}

// lead issues alone in cycle 0 on the Pentium. The scoreboard starts
// at cycle 0, so an address form issued in cycle 0 sees its (never
// written) base as produced the cycle before and takes an AGI stall;
// cases about other rules start after lead.
var lead = ri(FaddD, 40, 41, 42)

func TestPipelinePentiumPairing(t *testing.T) {
	memSrc := Inst{Op: Add, Rd: 2, Rs1: 2, Rs2: 3, MemSrc: true}
	memDst := Inst{Op: Add, Rd: NoReg, Rs1: 1, Rs2: NoReg, MemDst: true}
	checkCharges(t, X86Machine(), []chargeCase{
		{"independent ALU pair", []Inst{ri(Add, 0, 0, 1), ri(Add, 2, 2, 3)}, 1},
		{"three ALU ops", []Inst{ri(Add, 0, 0, 1), ri(Add, 2, 2, 3), ri(Sub, 6, 6, 3)}, 2},
		{"two U-only shifts", []Inst{ri(SllI, 0, 0, NoReg), ri(SllI, 2, 2, NoReg)}, 2},
		{"shift then ALU in V", []Inst{ri(SllI, 0, 0, NoReg), ri(Add, 2, 2, 3)}, 1},
		{"ALU then shift", []Inst{ri(Add, 2, 2, 3), ri(SllI, 0, 0, NoReg)}, 2},
		{"ALU then branch in V", []Inst{ri(Add, 0, 0, 1), ri(J, NoReg, NoReg, NoReg)}, 1},
		{"branch ends the pair", []Inst{ri(J, NoReg, NoReg, NoReg), ri(Add, 0, 0, 1)}, 2},
		{"FP issues alone", []Inst{ri(FaddD, 32, 33, 34), ri(Add, 0, 0, 1)}, 2},
		{"MemSrc then ALU in V", []Inst{lead, memSrc, ri(Add, 0, 0, 1)}, 2},
		{"MemSrc only in U", []Inst{lead, ri(Add, 0, 0, 1), memSrc}, 3},
		{"MemDst extra cycle", []Inst{memDst}, 2},
		{"ALU then MemDst", []Inst{ri(Add, 0, 0, 1), memDst}, 3},
		{"mul then use", []Inst{ri(Mul, 0, 0, 1), ri(Add, 2, 0, 0)}, 11},
		// The store buffer takes the value after issue: a store waits
		// only on its address register.
		{"mul then store of the value", []Inst{ri(Mul, 0, 0, 1), ri(Sw, 0, 3, NoReg)}, 2},
		{"mul then store through it", []Inst{ri(Mul, 0, 0, 1), ri(Sw, 3, 0, NoReg)}, 12},
	})
}

func TestPipelinePentiumAGIStall(t *testing.T) {
	set0 := ri(Add, 0, 0, 1)
	checkCharges(t, X86Machine(), []chargeCase{
		{"load through a base set the cycle before", []Inst{lead, set0, ri(Lw, 2, 0, NoReg)}, 4},
		{"load through another base", []Inst{lead, set0, ri(Lw, 2, 3, NoReg)}, 2},
		{"store through a base set the cycle before", []Inst{lead, set0, ri(Sw, 2, 0, NoReg)}, 4},
		{"lea of a base set the cycle before", []Inst{lead, set0, {Op: Lea, Rd: 2, Rs1: 0, Rs2: NoReg, Imm: 4}}, 4},
		{"MemSrc through a base set the cycle before", []Inst{lead, ri(Add, 3, 3, 1), {Op: Add, Rd: 2, Rs1: 2, Rs2: 3, MemSrc: true}}, 4},
		{"ALU use is not an AGI", []Inst{lead, set0, ri(Add, 2, 0, 0)}, 3},
		{"address form in cycle 0", []Inst{ri(Lw, 2, 3, NoReg)}, 2},
	})
}

func TestPipelinePPCDualIssueAndFolding(t *testing.T) {
	add1, add2 := ri(Add, 3, 4, 5), ri(Add, 6, 7, 8)
	checkCharges(t, PPCMachine(), []chargeCase{
		{"two independent adds", []Inst{add1, add2}, 1},
		{"three independent adds", []Inst{add1, add2, ri(Add, 9, 10, 11)}, 2},
		{"folded branch takes no slot", []Inst{add1, add2, ri(J, NoReg, NoReg, NoReg)}, 1},
		{"load then use", []Inst{ri(Lw, 3, 1, NoReg), ri(Add, 4, 3, 3)}, 3},
		// CR forwarding: the folded branch sees the compare in its own
		// cycle, so the add after it still pairs with the compare.
		{"compare, branch, add", []Inst{ri(Cmp, NoReg, 3, 4), ri(Bcc, NoReg, NoReg, NoReg), add2}, 1},
		{"mul then use", []Inst{ri(Mul, 3, 4, 5), ri(Add, 6, 3, 3)}, 6},
	})
}

func TestDelaySlotControlInstructionFaults(t *testing.T) {
	// A control transfer in a delay slot is illegal on the delay-slot
	// machines; the executor must reject it rather than guess.
	m := MIPSMachine()
	prog := &Program{
		Arch: m.Arch,
		Code: []Inst{
			{Op: J, Rd: NoReg, Rs1: NoReg, Rs2: NoReg, Target: 2},
			{Op: J, Rd: NoReg, Rs1: NoReg, Rs2: NoReg, Target: 0}, // in the slot
			{Op: Halt, Rd: NoReg, Rs1: NoReg, Rs2: NoReg},
		},
	}
	env := &hostapi.Env{Layout: &hostapi.Layout{StackTop: 0x1000}}
	s := New(m, prog, nil, env)
	s.MaxInsts = 100
	if _, err := s.Run(); err == nil {
		t.Error("control transfer in a delay slot executed")
	}
}
