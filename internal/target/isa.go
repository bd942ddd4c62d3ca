// Package target defines the four simulated native architectures the
// load-time translators and baseline compilers emit code for (§3.2,
// §4.1 of the paper): the instruction set common to the back ends, the
// per-architecture machine descriptors with their pipeline cost
// models, and a simulator that executes translated or natively
// compiled programs over the segmented address space.
//
// Target code addresses are instruction indices into Program.Code,
// exactly as OmniVM code addresses are indices into the module text;
// translated programs carry an omni-to-native index map so indirect
// branches (which transfer to OmniVM addresses held in registers)
// land on the right native instruction.
package target

import (
	"fmt"
	"unsafe"
)

// Reg is a physical register number. Integer registers occupy 0..31
// and FP registers 32..63, so the two files never alias in dependence
// analysis. NoReg marks an absent operand.
type Reg int8

// NoReg marks an unused register operand (or an OmniVM register with
// no image in the architectural file, kept in the register-save area
// instead).
const NoReg Reg = -1

// x86 register numbers needed outside the descriptor (the native
// compiler adds these to its allocatable set).
const (
	EBP Reg = 5
	EDI Reg = 7
)

// Op is a target instruction opcode. The set is the union of what the
// four back ends need; each machine uses the subset its architecture
// has (e.g. only MIPS emits Beq, only x86 emits MemDst forms).
type Op uint8

const (
	Nop Op = iota

	// Three-register ALU.
	Add
	Sub
	Mul
	Div
	DivU
	Rem
	RemU
	And
	Or
	Xor
	Sll
	Srl
	Sra
	Slt
	Sltu

	// Register-immediate ALU.
	AddI
	AndI
	OrI
	XorI
	SllI
	SrlI
	SraI
	SltI
	SltuI

	// Constants and moves.
	MovI // rd = imm
	Mov  // rd = rs1
	Lui  // rd = imm << 16
	Lea  // rd = rs1 + imm (x86 address arithmetic)
	Neg  // rd = -rs1

	// Loads: rd = mem[rs1 + imm] (or mem[rs1 + rs2] with Indexed).
	Lb
	Lbu
	Lh
	Lhu
	Lw
	Lf // FP single: widened to double in the register
	Ld // FP double

	// Stores: mem[rs1 + imm] = rd (Rd is the value operand).
	Sb
	Sh
	Sw
	Sf
	Sd

	// FP arithmetic. Single-precision forms round through float32,
	// mirroring the OmniVM interpreter.
	FaddS
	FsubS
	FmulS
	FdivS
	FaddD
	FsubD
	FmulD
	FdivD
	FnegS
	FnegD
	FabsS
	FabsD
	Fmov

	// Bit moves between the files.
	MovWF // fd = float of bits rs1
	MovFW // rd = bits of float rs1

	// Conversions (W = int word, S = single, D = double).
	CvtWS
	CvtWD
	CvtSW
	CvtDW
	CvtSD
	CvtDS

	// Compares latching operands into the (simulated) condition state.
	Cmp
	CmpI
	CmpUI
	Fcmp

	// Conditional branches. Bcc/FBcc test the latched compare with the
	// instruction's CC; the rest are the MIPS compare-and-branch forms.
	Bcc
	FBcc
	Beq
	Bne
	Beqz
	Bnez
	Bltz
	Blez
	Bgtz
	Bgez

	// Unconditional transfers.
	J
	Jal
	Jr
	Jalr

	// System.
	Syscall
	Break
	Halt

	NumOps
)

var opNames = [NumOps]string{
	Nop: "nop",
	Add: "add", Sub: "sub", Mul: "mul", Div: "div", DivU: "divu",
	Rem: "rem", RemU: "remu", And: "and", Or: "or", Xor: "xor",
	Sll: "sll", Srl: "srl", Sra: "sra", Slt: "slt", Sltu: "sltu",
	AddI: "addi", AndI: "andi", OrI: "ori", XorI: "xori",
	SllI: "slli", SrlI: "srli", SraI: "srai", SltI: "slti", SltuI: "sltui",
	MovI: "movi", Mov: "mov", Lui: "lui", Lea: "lea", Neg: "neg",
	Lb: "lb", Lbu: "lbu", Lh: "lh", Lhu: "lhu", Lw: "lw", Lf: "lf", Ld: "ld",
	Sb: "sb", Sh: "sh", Sw: "sw", Sf: "sf", Sd: "sd",
	FaddS: "fadds", FsubS: "fsubs", FmulS: "fmuls", FdivS: "fdivs",
	FaddD: "faddd", FsubD: "fsubd", FmulD: "fmuld", FdivD: "fdivd",
	FnegS: "fnegs", FnegD: "fnegd", FabsS: "fabss", FabsD: "fabsd",
	Fmov: "fmov", MovWF: "movwf", MovFW: "movfw",
	CvtWS: "cvtws", CvtWD: "cvtwd", CvtSW: "cvtsw",
	CvtDW: "cvtdw", CvtSD: "cvtsd", CvtDS: "cvtds",
	Cmp: "cmp", CmpI: "cmpi", CmpUI: "cmpui", Fcmp: "fcmp",
	Bcc: "bcc", FBcc: "fbcc", Beq: "beq", Bne: "bne",
	Beqz: "beqz", Bnez: "bnez", Bltz: "bltz", Blez: "blez",
	Bgtz: "bgtz", Bgez: "bgez",
	J: "j", Jal: "jal", Jr: "jr", Jalr: "jalr",
	Syscall: "syscall", Break: "break", Halt: "halt",
}

func (op Op) String() string {
	if op < NumOps && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op%d", int(op))
}

// IsBranch reports whether op is a conditional branch.
func (op Op) IsBranch() bool { return op >= Bcc && op <= Bgez }

// IsJump reports whether op is an unconditional control transfer.
func (op Op) IsJump() bool { return op >= J && op <= Jalr }

// IsLoad reports whether op reads memory through the load unit.
func (op Op) IsLoad() bool { return op >= Lb && op <= Ld }

// IsStore reports whether op writes memory (Rd is the value operand).
func (op Op) IsStore() bool { return op >= Sb && op <= Sd }

// CC is a condition code tested by Bcc/FBcc against the latched
// compare operands. The order matches internal/cc/ir.CC so the native
// back end converts by value.
type CC uint8

const (
	CCEq CC = iota
	CCNe
	CCLt
	CCLe
	CCGt
	CCGe
	CCLtU
	CCLeU
	CCGtU
	CCGeU
)

var ccNames = [...]string{"eq", "ne", "lt", "le", "gt", "ge", "ltu", "leu", "gtu", "geu"}

func (cc CC) String() string {
	if int(cc) < len(ccNames) {
		return ccNames[cc]
	}
	return fmt.Sprintf("cc%d", int(cc))
}

// ExpCat classifies each translated instruction for the paper's
// Figure 1 expansion accounting: the base translation of the OmniVM
// instruction, extra address arithmetic, SFI sandboxing, large-constant
// loading, comparison synthesis, and unfilled branch delay slots.
type ExpCat uint8

const (
	CatBase ExpCat = iota
	CatAddr
	CatSFI
	CatLdi
	CatCmp
	CatBnop
	NumCats
)

var catNames = [NumCats]string{"base", "addr", "sfi", "ldi", "cmp", "bnop"}

func (c ExpCat) String() string {
	if c < NumCats {
		return catNames[c]
	}
	return fmt.Sprintf("cat%d", int(c))
}

// Inst is one target instruction.
type Inst struct {
	Op  Op
	Rd  Reg // destination; for stores, the value operand
	Rs1 Reg // first source / address base
	Rs2 Reg // second source / index register
	Imm int32
	// Target is a code address (instruction index) for branches and
	// jumps; for the x86 immediate-form MemDst it carries the operand.
	Target int32
	CC     CC
	Cat    ExpCat
	// Src is the OmniVM instruction index this instruction was
	// translated from (-1 for stub code); exceptions report it so a
	// module handler sees OmniVM addresses.
	Src int32
	// Sym is back-end-internal: a relocation mark consumed before the
	// program reaches the simulator.
	Sym string
	// x86 addressing forms: MemSrc reads the second ALU operand from
	// mem[rs2+imm]; MemDst read-modify-writes mem[imm] (absolute); on
	// PPC/SPARC Indexed addresses loads/stores with rs1+rs2.
	MemSrc  bool
	MemDst  bool
	Indexed bool
}

func (in Inst) String() string {
	s := in.Op.String()
	if in.Op == Bcc || in.Op == FBcc {
		s += "." + in.CC.String()
	}
	add := func(f string, args ...interface{}) { s += fmt.Sprintf(f, args...) }
	if in.Rd != NoReg {
		add(" r%d", int(in.Rd))
	}
	if in.Rs1 != NoReg {
		add(" r%d", int(in.Rs1))
	}
	if in.Rs2 != NoReg {
		add(" r%d", int(in.Rs2))
	}
	if in.Imm != 0 {
		add(" imm=%d", in.Imm)
	}
	if in.Target != 0 {
		add(" tgt=%d", in.Target)
	}
	if in.MemSrc {
		s += " [memsrc]"
	}
	if in.MemDst {
		s += " [memdst]"
	}
	if in.Indexed {
		s += " [indexed]"
	}
	return s
}

// Arch identifies a simulated architecture.
type Arch uint8

const (
	MIPS Arch = iota
	SPARC
	PPC
	X86
)

func (a Arch) String() string {
	switch a {
	case MIPS:
		return "mips"
	case SPARC:
		return "sparc"
	case PPC:
		return "ppc"
	case X86:
		return "x86"
	}
	return fmt.Sprintf("arch%d", int(a))
}

// Program is translated or natively compiled target code.
//
// A Program is immutable once it has been run: runs share a table of
// issue facts derived from Code, so changing an instruction in place
// would leave that table describing the old code. To run altered code,
// copy the Program and give the copy its own Code slice; the copy then
// builds its own table.
type Program struct {
	Arch Arch
	Code []Inst
	// Entry is the index execution starts at.
	Entry int32
	// OmniToNative maps OmniVM code addresses to native indices, for
	// indirect branches; nil for natively compiled programs (whose
	// code pointers are native indices already).
	OmniToNative []int32
	// Static counts the translator's emitted instructions by category
	// (Figure 1's static code expansion).
	Static [NumCats]int

	// issue points at the predecoded *issueTable (cycles.go), built by
	// the first run and published with an atomic store. It is a plain
	// unsafe.Pointer rather than an atomic.Pointer so Programs stay
	// copyable; the table records which Code it describes.
	issue unsafe.Pointer
}

// Result is the outcome of a simulated execution.
type Result struct {
	ExitCode int32
	Insts    uint64 // native instructions executed
	Cycles   uint64 // simulated pipeline cycles
	Counts   [NumCats]uint64
	Faulted  bool
	Fault    string
}

// Attribution groups dynamic instruction counts the way the paper's
// overhead tables do: application work (the base translation plus the
// address arithmetic, large-constant and compare-synthesis expansion
// any translator pays), sandboxing checks (the SFI cost the paper
// measures), and scheduling filler (unfilled delay slots / nops).
type Attribution struct {
	App     uint64 `json:"app"`
	Sandbox uint64 `json:"sandbox"`
	Sched   uint64 `json:"sched"`
}

// Attribution buckets the run's per-category counts.
func (r Result) Attribution() Attribution {
	return Attribution{
		App:     r.Counts[CatBase] + r.Counts[CatAddr] + r.Counts[CatLdi] + r.Counts[CatCmp],
		Sandbox: r.Counts[CatSFI],
		Sched:   r.Counts[CatBnop],
	}
}

// Total is the attributed instruction count.
func (a Attribution) Total() uint64 { return a.App + a.Sandbox + a.Sched }

// SandboxPct is the percentage of executed instructions spent on
// sandboxing checks (0 when nothing ran).
func (a Attribution) SandboxPct() float64 {
	t := a.Total()
	if t == 0 {
		return 0
	}
	return 100 * float64(a.Sandbox) / float64(t)
}

// IntSlotOffset is the offset of OmniVM integer register i's slot in
// the register-save area (used for memory-resident registers on x86
// and by the syscall bridge).
func IntSlotOffset(i int) uint32 { return uint32(i) * 4 }

// FPSlotOffset is the offset of OmniVM FP register i's slot in the
// register-save area. The FP slots follow the 16 integer slots.
func FPSlotOffset(i int) uint32 { return 64 + uint32(i)*8 }
