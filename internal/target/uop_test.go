package target

import (
	"testing"

	"omniware/internal/seg"
)

// runCode executes code on m over newTestSim's data segment after setup
// (if any) has prepared the memory, and returns the finished simulator.
func runCode(t *testing.T, m *Machine, code []Inst, setup func(mem *seg.Memory)) (*Sim, Result) {
	t.Helper()
	code = append(code, Inst{Op: Halt, Rd: NoReg, Rs1: NoReg, Rs2: NoReg})
	s := newTestSim(t, m, &Program{Arch: m.Arch, Code: code})
	if setup != nil {
		setup(s.Mem)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatalf("%s: %v", m.Name, err)
	}
	return s, res
}

// Writes to a machine's zero register are discarded (MIPS, SPARC and
// PPC read it as 0 whatever was written), but x86 has none: its
// register 0 is EAX and keeps what is written. Absent operands read 0,
// also after an instruction wrote to an absent destination.
func TestZeroRegAndAbsentOperands(t *testing.T) {
	for _, m := range Machines() {
		a, b, c, d := m.OmniInt[2], m.OmniInt[3], m.Scratch[0], m.Scratch[1]
		s, _ := runCode(t, m, []Inst{
			{Op: MovI, Rd: 0, Rs1: NoReg, Rs2: NoReg, Imm: 77},
			{Op: Mov, Rd: a, Rs1: 0, Rs2: NoReg},
			{Op: MovI, Rd: NoReg, Rs1: NoReg, Rs2: NoReg, Imm: 5},
			{Op: Add, Rd: b, Rs1: NoReg, Rs2: NoReg},
			{Op: AddI, Rd: c, Rs1: NoReg, Rs2: NoReg, Imm: 9},
			{Op: MovI, Rd: d, Rs1: NoReg, Rs2: NoReg, Imm: testData},
			{Op: Sw, Rd: NoReg, Rs1: d, Rs2: NoReg},
		}, func(mem *seg.Memory) { mem.StoreU32(testData, 0xffffffff) })
		want0 := uint32(0)
		if m.ZeroReg == NoReg {
			want0 = 77
		}
		if s.r[0] != want0 || s.r[a] != want0 {
			t.Errorf("%s: register 0 holds %d and reads as %d, want %d", m.Name, s.r[0], s.r[a], want0)
		}
		if s.r[b] != 0 || s.r[c] != 9 {
			t.Errorf("%s: NoReg + NoReg = %d, NoReg + 9 = %d; want 0 and 9", m.Name, s.r[b], s.r[c])
		}
		if v, _ := s.Mem.LoadU32(testData); v != 0 {
			t.Errorf("%s: a store of NoReg wrote %#x, want 0", m.Name, v)
		}
	}
}

// An Indexed access addresses rs1+rs2 and ignores its immediate; any
// other addresses rs1+imm and ignores rs2.
func TestIndexedAndBaseImmAddressing(t *testing.T) {
	for _, m := range Machines() {
		base, idx, v, x, y := m.OmniInt[2], m.OmniInt[3], m.OmniInt[4], m.Scratch[0], m.Scratch[1]
		s, _ := runCode(t, m, []Inst{
			{Op: MovI, Rd: base, Rs1: NoReg, Rs2: NoReg, Imm: testData},
			{Op: MovI, Rd: idx, Rs1: NoReg, Rs2: NoReg, Imm: 8},
			{Op: MovI, Rd: v, Rs1: NoReg, Rs2: NoReg, Imm: 0x1234},
			{Op: Sw, Rd: v, Rs1: base, Rs2: idx, Imm: 100, Indexed: true},
			{Op: Lw, Rd: x, Rs1: base, Rs2: idx, Imm: 8},
			{Op: Lw, Rd: y, Rs1: base, Rs2: idx, Imm: 4, Indexed: true},
			{Op: Sh, Rd: x, Rs1: base, Rs2: idx, Imm: 16},
		}, nil)
		if s.r[x] != 0x1234 || s.r[y] != 0x1234 {
			t.Errorf("%s: loaded %#x (base+imm) and %#x (indexed), want 0x1234", m.Name, s.r[x], s.r[y])
		}
		for _, c := range []struct{ off, want uint32 }{{8, 0x1234}, {16, 0x1234}, {108, 0}, {24, 0}} {
			if got, _ := s.Mem.LoadU32(testData + c.off); got != c.want {
				t.Errorf("%s: word at +%d is %#x, want %#x", m.Name, c.off, got, c.want)
			}
		}
	}
}

// The x86 register-memory forms: MemSrc computes rd = op(rs1,
// mem[rs2+imm]); MemDst computes mem[imm] op= rs1, or op= Target with
// no register. StoreTrace sees each MemDst store once, on the first
// touch of a page (a TLB miss on the load, then on the store) and on
// a hit alike, and a refused one as faulted; a MemDst whose load
// faults stores nothing and traces nothing.
func TestX86MemoryForms(t *testing.T) {
	m := X86Machine()
	b, base, c := m.OmniInt[2], m.OmniInt[3], m.OmniInt[4]
	type store struct {
		addr, size uint32
		faulted    bool
	}
	run := func(code []Inst, setup func(mem *seg.Memory)) (*Sim, Result, []store) {
		var trace []store
		code = append([]Inst{
			{Op: MovI, Rd: b, Rs1: NoReg, Rs2: NoReg, Imm: 2},
			{Op: MovI, Rd: base, Rs1: NoReg, Rs2: NoReg, Imm: testData},
		}, code...)
		code = append(code, Inst{Op: Halt, Rd: NoReg, Rs1: NoReg, Rs2: NoReg})
		s := newTestSim(t, m, &Program{Arch: m.Arch, Code: code})
		s.StoreTrace = func(addr, size uint32, faulted bool) { trace = append(trace, store{addr, size, faulted}) }
		if setup != nil {
			setup(s.Mem)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return s, res, trace
	}

	s, res, trace := run([]Inst{
		{Op: Add, Rd: c, Rs1: b, Rs2: base, Imm: 0x100, MemSrc: true},
		{Op: Sub, Rd: NoReg, Rs1: b, Rs2: NoReg, Imm: testData + 0x2000, MemDst: true},
		{Op: Or, Rd: NoReg, Rs1: NoReg, Rs2: NoReg, Imm: testData + 0x3000, Target: 0x0f, MemDst: true},
		{Op: Add, Rd: NoReg, Rs1: b, Rs2: NoReg, Imm: testData + 0x3000, MemDst: true},
	}, func(mem *seg.Memory) {
		mem.StoreU32(testData+0x100, 40)
		mem.StoreU32(testData+0x2000, 50)
		mem.StoreU32(testData+0x3000, 0x30)
	})
	if res.Faulted || s.r[c] != 42 {
		t.Errorf("MemSrc: 2 + 40 = %d (fault %q), want 42", s.r[c], res.Fault)
	}
	for _, w := range []struct{ off, want uint32 }{{0x2000, 48}, {0x3000, 0x41}} {
		if got, _ := s.Mem.LoadU32(testData + w.off); got != w.want {
			t.Errorf("MemDst: word at +%#x is %#x, want %#x", w.off, got, w.want)
		}
	}
	want := []store{{testData + 0x2000, 4, false}, {testData + 0x3000, 4, false}, {testData + 0x3000, 4, false}}
	if len(trace) != len(want) {
		t.Fatalf("StoreTrace saw %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Errorf("StoreTrace saw %v, want %v", trace, want)
			break
		}
	}

	// A store to a read-only page faults after its load succeeded.
	_, res, trace = run([]Inst{{Op: Add, Rd: NoReg, Rs1: b, Rs2: NoReg, Imm: testData + 0x4000, MemDst: true}},
		func(mem *seg.Memory) { mem.Protect(testData+0x4000, seg.PageSize, seg.Read) })
	if !res.Faulted || len(trace) != 1 || trace[0] != (store{testData + 0x4000, 4, true}) {
		t.Errorf("MemDst to a read-only page: faulted %t, trace %v; want a fault traced once as faulted", res.Faulted, trace)
	}
	// An unmapped address faults on the load: no store happens.
	_, res, trace = run([]Inst{{Op: Add, Rd: NoReg, Rs1: b, Rs2: NoReg, Imm: 0x70000000, MemDst: true}}, nil)
	if !res.Faulted || len(trace) != 0 {
		t.Errorf("MemDst to an unmapped address: faulted %t, trace %v; want a fault and no store", res.Faulted, trace)
	}
}
