package target

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"

	"omniware/internal/hostapi"
	"omniware/internal/seg"
)

// ErrBudget and ErrInterrupted alias the hostapi sentinels both
// executors wrap, so callers holding only this package can still
// classify run terminations with errors.Is.
var (
	ErrBudget      = hostapi.ErrBudget
	ErrInterrupted = hostapi.ErrInterrupted
)

// Exception kind codes delivered in r1 to a module's access-violation
// handler; the values match internal/interp's ExcKind codes so a
// module sees the same ABI under interpretation and translation.
const (
	excUnmapped  = 1
	excProt      = 2
	excUnaligned = 3
	excDivZero   = 4
	excBadJump   = 5
	excBreak     = 6
)

func faultKind(f *seg.Fault) uint32 {
	switch f.Kind {
	case seg.FaultUnmapped:
		return excUnmapped
	case seg.FaultProt:
		return excProt
	default:
		return excUnaligned
	}
}

// Sim executes a target Program over a segmented address space. It
// simulates the architectural register file, the pipeline cost model
// of its Machine, and the delay-slot semantics of the delay-slot
// architectures; it implements hostapi.CPU so syscalls see the OmniVM
// register state through the machine's register mapping.
type Sim struct {
	M    *Machine
	Prog *Program
	Mem  *seg.Memory
	Env  *hostapi.Env

	// MaxInsts bounds execution (0 = unlimited); exceeding it returns
	// an error mentioning "budget".
	MaxInsts uint64

	// Interrupt, when non-nil, is polled every few thousand executed
	// instructions; once it reports true, Run aborts with an error
	// mentioning "interrupted". The serving layer's per-job timeout
	// watchdog sets it from another goroutine.
	Interrupt *atomic.Bool

	// StoreTrace, when non-nil, observes every store the program
	// itself issues (plain stores and x86 read-modify-write MemDst
	// forms; runtime writes such as syscall results and exception
	// delivery are not program stores and are not traced). faulted
	// reports whether the segment layer refused the access. The SFI
	// differential harness uses this as its soundness oracle: a
	// verifier-accepted program must never complete a store outside
	// its data segment.
	StoreTrace func(addr, size uint32, faulted bool)

	// The register files, indexed by micro-op register slot: r holds
	// the integer registers at 0..31, f the FP registers at 32..63, and
	// both read 0 at rZero. They span a uint8's range so indexing by
	// a slot needs no bounds check.
	r  [256]uint32
	f  [256]float64
	ia uint32 // latched integer compare operands
	ib uint32
	fa float64 // latched FP compare operands
	fb float64

	ops []uop // the program's micro-ops, set by Run
	// runs counts each region's completed executions during Run, which
	// folds them into counts as it returns and leaves them zero. Reset
	// and Release keep the buffer, so a pooled simulator allocates it
	// once.
	runs     []uint64
	pc       int32
	insts    uint64
	nextPoll uint64 // insts threshold for the next Interrupt check
	counts   [NumCats]uint64
	pipe     pipe
}

// pollEvery is the Interrupt polling interval in executed instructions.
const pollEvery = 0x1000

// New prepares a simulator for one run of prog. The OmniVM stack
// pointer and return-address images are initialized exactly as the
// interpreter initializes them.
func New(m *Machine, prog *Program, mem *seg.Memory, env *hostapi.Env) *Sim {
	s := &Sim{M: m, Prog: prog, Mem: mem, Env: env, pc: prog.Entry}
	s.pipe.init(m)
	s.SetIntReg(14, env.Layout.StackTop) // OmniVM sp
	s.SetIntReg(15, 0x7fffffff)          // returning from entry halts
	return s
}

// Reset reinitializes a simulator in place — New without the
// allocation, for callers that embed a Sim and reuse it across runs
// (the serving layer's pooled hosts). The zero-value assignment
// clears every piece of run state (registers, counters, pipeline
// clock) and keeps the region-count buffer, which Run leaves zero; the
// tail mirrors New exactly.
func (s *Sim) Reset(m *Machine, prog *Program, mem *seg.Memory, env *hostapi.Env) {
	*s = Sim{M: m, Prog: prog, Mem: mem, Env: env, pc: prog.Entry, runs: s.runs}
	s.pipe.init(m)
	s.SetIntReg(14, env.Layout.StackTop)
	s.SetIntReg(15, 0x7fffffff)
}

// Release drops everything a finished run refers to (its machine,
// program, memory, environment and hooks), so a pooled simulator pins
// none of them between runs, and keeps its buffers for the next Reset.
func (s *Sim) Release() { *s = Sim{runs: s.runs} }

// regSaveAddr is the memory slot of OmniVM integer register i.
func (s *Sim) regSaveAddr(i int) uint32 {
	return s.Env.Layout.RegSave + IntSlotOffset(i)
}

// IntReg returns OmniVM integer register i (hostapi.CPU).
func (s *Sim) IntReg(i int) uint32 {
	if r := s.M.OmniInt[i]; r != NoReg {
		return s.r[r]
	}
	v, _ := s.Mem.LoadU32(s.regSaveAddr(i))
	return v
}

// SetIntReg sets OmniVM integer register i (writes to r0 discarded).
func (s *Sim) SetIntReg(i int, v uint32) {
	if i == 0 {
		return
	}
	if r := s.M.OmniInt[i]; r != NoReg {
		s.r[r] = v
		return
	}
	s.Mem.StoreU32(s.regSaveAddr(i), v)
}

// FPReg returns OmniVM FP register i.
func (s *Sim) FPReg(i int) float64 {
	if r := s.M.OmniFP[i]; r != NoReg {
		return s.f[r]
	}
	v, _ := s.Mem.LoadU64(s.Env.Layout.RegSave + FPSlotOffset(i))
	return math.Float64frombits(v)
}

// SetFPReg sets OmniVM FP register i.
func (s *Sim) SetFPReg(i int, v float64) {
	if r := s.M.OmniFP[i]; r != NoReg {
		s.f[r] = v
		return
	}
	s.Mem.StoreU64(s.Env.Layout.RegSave+FPSlotOffset(i), math.Float64bits(v))
}

// Cycles returns elapsed simulated cycles.
func (s *Sim) Cycles() uint64 { return s.pipe.clock }

func (s *Sim) result(exit int32, faulted bool, fault string) Result {
	return Result{
		ExitCode: exit,
		Insts:    s.insts,
		Cycles:   s.Cycles(),
		Faulted:  faulted,
		Fault:    fault,
	}
}

// exception delivers an access violation to the module's registered
// handler, or terminates the run. src is the faulting instruction's
// OmniVM index (what the handler sees in r3).
func (s *Sim) exception(kind, addr uint32, src int32, desc string) (Result, bool) {
	h := s.Env.Handler
	var to int32 = -1
	if o2n := s.Prog.OmniToNative; o2n != nil {
		if h >= 0 && int(h) < len(o2n) {
			to = o2n[h]
		}
	} else if h >= 0 && int(h) < len(s.Prog.Code) {
		to = h
	}
	if to < 0 {
		return s.result(-1, true, desc), true
	}
	s.SetIntReg(1, kind)
	s.SetIntReg(2, addr)
	s.SetIntReg(3, uint32(src))
	s.pc = to
	return Result{}, false
}

// accountRange charges the instructions from..to-1 one at a time: an
// instruction stepped outside a region, or the issued prefix of a
// region an exception cut short.
func (s *Sim) accountRange(t *issueTable, from, to int32) {
	code := s.Prog.Code
	for pc := from; pc < to; pc++ {
		s.insts++
		s.counts[code[pc].Cat]++
		s.pipe.issue(&t.facts[pc])
	}
}

// stop returns the instruction count at which Run next has to look at
// the budget or poll Interrupt.
func (s *Sim) stop() uint64 {
	stop := uint64(math.MaxUint64)
	if s.MaxInsts > 0 {
		stop = s.MaxInsts
	}
	if s.Interrupt != nil && s.nextPoll < stop {
		stop = s.nextPoll
	}
	return stop
}

// threshold handles Run reaching its stop count: the budget is
// exhausted, or it is time to poll Interrupt. It is a threshold (not
// an exact match) because delay-slot machines account two instructions
// per branch iteration and can step over the exact count.
func (s *Sim) threshold() error {
	if s.MaxInsts > 0 && s.insts >= s.MaxInsts {
		return fmt.Errorf("target/%s: %w (%d) at pc=%d", s.M.Name, hostapi.ErrBudget, s.MaxInsts, s.pc)
	}
	if s.Interrupt != nil && s.insts >= s.nextPoll {
		s.nextPoll = s.insts + pollEvery
		if s.Interrupt.Load() {
			return fmt.Errorf("target/%s: %w at pc=%d after %d instructions", s.M.Name, hostapi.ErrInterrupted, s.pc, s.insts)
		}
	}
	return nil
}

// trap is an exception an instruction raised, for Run to deliver;
// kind 0 is none.
type trap struct {
	kind, addr uint32
	src        int32 // the raising instruction's OmniVM index
	desc       string
}

// Run executes until halt, exit, an unhandled exception, or the
// instruction budget. It runs a region at a time (runRegions) wherever
// execution is at a region's first instruction and the region ends
// before the next budget or poll stop, and steps one instruction at a
// time elsewhere (a control transfer together with its delay slot);
// both paths execute instructions with execRange.
func (s *Sim) Run() (Result, error) {
	t := s.Prog.predecode(s.M)
	s.ops = t.uops
	if cap(s.runs) < len(t.regions) {
		s.runs = make([]uint64, len(t.regions))
	}
	s.runs = s.runs[:len(t.regions)]
	res, err := s.run(t)
	for ri, k := range s.runs {
		if k != 0 {
			for c, n := range t.regions[ri].cats {
				s.counts[c] += k * uint64(n)
			}
			s.runs[ri] = 0
		}
	}
	if err != nil {
		return Result{}, err
	}
	res.Counts = s.counts
	return res, nil
}

// run is Run, but counts each completed region in s.runs instead of
// adding its category counts.
func (s *Sim) run(t *issueTable) (Result, error) {
	n := int32(len(t.uops))
	stop := s.stop()
	for {
		if s.insts >= stop {
			if err := s.threshold(); err != nil {
				return Result{}, err
			}
			stop = s.stop()
		}
		pc := s.pc
		if pc < 0 || pc >= n {
			if res, done := s.exception(excBadJump, uint32(pc), pc, fmt.Sprintf("target/%s: pc %d out of code", s.M.Name, pc)); done {
				return res, nil
			}
			continue
		}
		if ri := t.at[pc]; ri >= 0 {
			// A budget or poll stop inside the region leaves it to
			// single steps.
			if r := &t.regions[ri]; s.insts+uint64(r.end-r.start) <= stop {
				if tr := s.runRegions(t, stop); tr.kind != 0 {
					if res, done := s.exception(tr.kind, tr.addr, tr.src, tr.desc); done {
						return res, nil
					}
				}
				continue
			}
		}

		switch u := &t.uops[pc]; u.kind {
		case Syscall:
			s.accountRange(t, pc, pc+1)
			if err := s.Env.Syscall(int32(u.imm), s); err != nil {
				return Result{}, fmt.Errorf("target/%s: pc=%d: %w", s.M.Name, pc, err)
			}
			if s.Env.Exited {
				return s.result(s.Env.ExitCode, false, ""), nil
			}
			s.pc++
			continue
		case Break:
			s.accountRange(t, pc, pc+1)
			if res, done := s.exception(excBreak, uint32(pc), s.Prog.Code[pc].Src, fmt.Sprintf("target/%s: breakpoint at %d", s.M.Name, pc)); done {
				return res, nil
			}
			continue
		case Halt:
			s.accountRange(t, pc, pc+1)
			return s.result(int32(s.IntReg(1)), false, ""), nil
		}

		// One instruction, or a control transfer and its delay slot.
		// A transfer or syscall in the slot is an error (no region
		// contains one); a transfer at the end of the code has no slot.
		end := pc + 1
		s.pc = pc + 1
		if t.facts[pc].bits&factCtl != 0 && s.M.HasDelaySlot {
			s.pc = pc + 2
			if end < n {
				if t.facts[end].bits&factCtl != 0 || t.uops[end].kind == Syscall {
					s.accountRange(t, pc, pc+1)
					return Result{}, fmt.Errorf("target/%s: control transfer in delay slot at %d", s.M.Name, end)
				}
				end++
			}
		}
		if at, kind, addr := s.execRange(pc, end); at >= 0 {
			s.accountRange(t, pc, at+1)
			tr := s.trapAt(t, pc, at, kind, addr)
			if res, done := s.exception(tr.kind, tr.addr, tr.src, tr.desc); done {
				return res, nil
			}
			continue
		}
		s.accountRange(t, pc, end)
	}
}

// runRegions runs regions back to back from s.pc, the first
// instruction of one, while each ends at or before stop. It returns
// when execution reaches an instruction no region starts at, a region
// that would pass stop, or an exception, which it returns undelivered
// after charging the instructions issued before it one at a time.
func (s *Sim) runRegions(t *issueTable, stop uint64) trap {
	for {
		pc := s.pc
		if pc < 0 || int(pc) >= len(t.at) {
			return trap{}
		}
		ri := t.at[pc]
		if ri < 0 {
			return trap{}
		}
		r := &t.regions[ri]
		if s.insts+uint64(r.end-r.start) > stop {
			return trap{}
		}
		s.pc = r.end
		if at, kind, addr := s.execRange(r.start, r.end); at >= 0 {
			s.accountRange(t, r.start, at+1)
			return s.trapAt(t, r.start, at, kind, addr)
		}
		s.insts += uint64(r.end - r.start)
		s.runs[ri]++
		s.charge(t, ri, r)
	}
}

// trapAt describes the exception (kind, addr) the instruction at index
// at raised in a range execRange ran from index from.
func (s *Sim) trapAt(t *issueTable, from, at int32, kind, addr uint32) trap {
	var desc string
	switch {
	case t.facts[at].bits&factCtl != 0:
		desc = fmt.Sprintf("target/%s: bad indirect target %#x", s.M.Name, addr)
	case at > from && t.facts[at-1].bits&factCtl != 0:
		desc = fmt.Sprintf("target/%s: fault in delay slot at %d", s.M.Name, at)
	default:
		desc = fmt.Sprintf("target/%s: memory fault at %#x (pc=%d)", s.M.Name, addr, at)
	}
	return trap{kind, addr, s.Prog.Code[at].Src, desc}
}

// A uop is one instruction predecoded for execRange. Its kind is the
// instruction's opcode folded onto fewer cases, or opMemSrc/opMemDst
// for the x86 register-memory forms, and its operands are register
// slots (the physical register number, rZero or rSink):
//
//   - An absent source operand reads rZero, which is never written;
//     a write to NoReg or to the machine's ZeroReg goes to rSink,
//     which is never read. (x86 has no zero register: its register 0
//     is EAX.)
//   - An integer operation's second operand is r[b] + imm: a register
//     form carries imm 0, an immediate form (and MovI, Lui, Mov, Lea)
//     reads b as rZero; Neg is zero minus the operand.
//   - A load or store addresses r[a] + r[b] + imm, which covers both
//     base+imm and the Indexed base+index form; d is the loaded
//     register, or the stored value.
//   - opMemSrc computes d = alu(r[b], mem[r[a] + imm]); opMemDst
//     computes mem[imm] = alu(mem[imm], r[b] + tgt), tgt carrying the
//     register-free form's immediate operand.
//   - A transfer branches to tgt, or to r[a] for Jalr; the
//     unconditional ones write the link imm to d.
type uop struct {
	kind    Op
	alu     Op // the ALU operation of opMemSrc/opMemDst
	cc      CC
	d, a, b uint8
	imm     uint32
	tgt     int32
}

// The kinds beside the opcodes, and the register slots beside the
// physical registers.
const (
	opMemSrc = NumOps + iota
	opMemDst

	rZero = 64 // never written: reads 0
	rSink = 65 // never read: absorbs discarded writes
)

// regForm maps each opcode with no second register operand (the
// immediate forms, the moves, Beqz and Bnez) to the register form its
// micro-op runs as, with b reading rZero.
var regForm = [NumOps]Op{AddI: Add, Lea: Add, MovI: Add, Lui: Add, Mov: Add, AndI: And, OrI: Or, XorI: Xor,
	SllI: Sll, SrlI: Srl, SraI: Sra, SltI: Slt, SltuI: Sltu, CmpI: Cmp, CmpUI: Cmp, Beqz: Beq, Bnez: Bne}

// decodeUop predecodes in for a machine whose hardwired zero register
// is zero (NoReg for none).
func decodeUop(in *Inst, zero Reg) uop {
	src := func(r Reg) uint8 { // an integer source
		if r < 0 || r >= 32 {
			return rZero
		}
		return uint8(r)
	}
	dst := func(r Reg) uint8 { // an integer destination
		if r < 0 || r >= 32 || r == zero {
			return rSink
		}
		return uint8(r)
	}
	fsrc := func(r Reg) uint8 {
		if r < 32 || r >= 64 {
			return rZero
		}
		return uint8(r)
	}
	fdst := func(r Reg) uint8 {
		if r < 32 || r >= 64 {
			return rSink
		}
		return uint8(r)
	}
	op := in.Op
	u := uop{kind: op, cc: in.CC, d: dst(in.Rd), a: src(in.Rs1), b: src(in.Rs2), imm: uint32(in.Imm), tgt: in.Target}
	switch {
	case in.MemSrc:
		u.kind, u.alu = opMemSrc, op
		u.a, u.b = src(in.Rs2), src(in.Rs1)
		return u
	case in.MemDst:
		u.kind, u.alu = opMemDst, op
		u.a, u.b, u.tgt = rZero, src(in.Rs1), 0
		if in.Rs1 == NoReg {
			u.tgt = in.Target
		}
		return u
	}
	if k := regForm[op]; k != 0 {
		u.kind, u.b = k, rZero
	}
	switch op {
	case Add, Sub, Mul, Div, DivU, Rem, RemU, And, Or, Xor, Sll, Srl, Sra, Slt, Sltu, Cmp:
		u.imm = 0
	case MovI:
		u.a = rZero
	case Lui:
		u.a, u.imm = rZero, uint32(in.Imm)<<16
	case Mov:
		u.imm = 0
	case Neg:
		u.kind, u.a, u.b, u.imm = Sub, rZero, src(in.Rs1), 0
	case Lb, Lbu, Lh, Lhu, Lw, Lf, Ld, Sb, Sh, Sw, Sf, Sd:
		if in.Indexed {
			u.imm = 0
		} else {
			u.b = rZero
		}
		switch op {
		case Lf, Ld:
			u.d = fdst(in.Rd)
		case Sb, Sh, Sw:
			u.d = src(in.Rd)
		case Sf, Sd:
			u.d = fsrc(in.Rd)
		}
	case FaddS, FsubS, FmulS, FdivS, FaddD, FsubD, FmulD, FdivD, Fcmp:
		u.d, u.a, u.b = fdst(in.Rd), fsrc(in.Rs1), fsrc(in.Rs2)
	case FnegS, FnegD, FabsS, FabsD, Fmov, CvtSD:
		u.d, u.a = fdst(in.Rd), fsrc(in.Rs1)
	case CvtDS:
		u.kind, u.d, u.a = CvtSD, fdst(in.Rd), fsrc(in.Rs1)
	case MovWF, CvtWS, CvtWD:
		u.d = fdst(in.Rd)
	case MovFW, CvtSW, CvtDW:
		u.a = fsrc(in.Rs1)
	case J:
		u.kind, u.d = Jal, rSink
	case Jr:
		u.kind, u.d = Jalr, rSink
	}
	return u
}

// execRange executes the instructions from..to-1 in order: plain
// instructions, optionally ended by a control transfer and its delay
// slot. A taken transfer sets s.pc to its target; the caller sets s.pc
// to where execution falls through. If an instruction raises an
// exception, execRange stops there and returns its index with the
// exception's kind and address; otherwise at is -1. Break and Halt
// (which only reach here in a delay slot) do nothing.
//
// A load or store that misses the TLB has Memory.Fill check it, which
// caches the page or reports the fault, and then runs again.
func (s *Sim) execRange(from, to int32) (at int32, kind, addr uint32) {
	r, f, mem, trace := &s.r, &s.f, s.Mem, s.StoreTrace
	ops := s.ops[from:to]
	for i := 0; i < len(ops); i++ {
		u := &ops[i]
		var a uint32 // the address of a load or store that missed
		var size int
		var need seg.Perm
		switch u.kind {
		case Add:
			r[u.d] = r[u.a] + r[u.b] + u.imm
		case Sub:
			r[u.d] = r[u.a] - r[u.b]
		case Mul:
			r[u.d] = uint32(int32(r[u.a]) * int32(r[u.b]))
		case Div, DivU, Rem, RemU:
			x, y := r[u.a], r[u.b]
			if y == 0 {
				return from + int32(i), excDivZero, 0
			}
			switch u.kind {
			case Div:
				r[u.d] = uint32(int32(x) / int32(y))
			case DivU:
				r[u.d] = x / y
			case Rem:
				r[u.d] = uint32(int32(x) % int32(y))
			case RemU:
				r[u.d] = x % y
			}
		case And:
			r[u.d] = r[u.a] & (r[u.b] + u.imm)
		case Or:
			r[u.d] = r[u.a] | (r[u.b] + u.imm)
		case Xor:
			r[u.d] = r[u.a] ^ (r[u.b] + u.imm)
		case Sll:
			r[u.d] = r[u.a] << ((r[u.b] + u.imm) & 31)
		case Srl:
			r[u.d] = r[u.a] >> ((r[u.b] + u.imm) & 31)
		case Sra:
			r[u.d] = uint32(int32(r[u.a]) >> ((r[u.b] + u.imm) & 31))
		case Slt:
			r[u.d] = b2u(int32(r[u.a]) < int32(r[u.b]+u.imm))
		case Sltu:
			r[u.d] = b2u(r[u.a] < r[u.b]+u.imm)
		case Cmp:
			s.ia, s.ib = r[u.a], r[u.b]+u.imm
		case Fcmp:
			s.fa, s.fb = f[u.a], f[u.b]

		// Loads and stores: the TLB hit inline, a miss below.
		case Lb, Lbu:
			a = r[u.a] + r[u.b] + u.imm
			if p := mem.Hit(a, 1, seg.Read); p != nil {
				v := uint32(p[a%seg.PageSize])
				if u.kind == Lb {
					v = uint32(int32(int8(v)))
				}
				r[u.d] = v
				continue
			}
			size, need = 1, seg.Read
		case Lh, Lhu:
			a = r[u.a] + r[u.b] + u.imm
			if p := mem.Hit(a, 2, seg.Read); p != nil {
				v := uint32(binary.LittleEndian.Uint16(p[a%seg.PageSize:]))
				if u.kind == Lh {
					v = uint32(int32(int16(v)))
				}
				r[u.d] = v
				continue
			}
			size, need = 2, seg.Read
		case Lw:
			a = r[u.a] + r[u.b] + u.imm
			if p := mem.Hit(a, 4, seg.Read); p != nil {
				r[u.d] = binary.LittleEndian.Uint32(p[a%seg.PageSize:])
				continue
			}
			size, need = 4, seg.Read
		case Lf:
			a = r[u.a] + r[u.b] + u.imm
			if p := mem.Hit(a, 4, seg.Read); p != nil {
				f[u.d] = float64(math.Float32frombits(binary.LittleEndian.Uint32(p[a%seg.PageSize:])))
				continue
			}
			size, need = 4, seg.Read
		case Ld:
			a = r[u.a] + r[u.b] + u.imm
			if p := mem.Hit(a, 8, seg.Read); p != nil {
				f[u.d] = math.Float64frombits(binary.LittleEndian.Uint64(p[a%seg.PageSize:]))
				continue
			}
			size, need = 8, seg.Read
		case Sb:
			a = r[u.a] + r[u.b] + u.imm
			if p := mem.Hit(a, 1, seg.Write); p != nil {
				p[a%seg.PageSize] = uint8(r[u.d])
				if trace != nil {
					trace(a, 1, false)
				}
				continue
			}
			size, need = 1, seg.Write
		case Sh:
			a = r[u.a] + r[u.b] + u.imm
			if p := mem.Hit(a, 2, seg.Write); p != nil {
				binary.LittleEndian.PutUint16(p[a%seg.PageSize:], uint16(r[u.d]))
				if trace != nil {
					trace(a, 2, false)
				}
				continue
			}
			size, need = 2, seg.Write
		case Sw, Sf:
			a = r[u.a] + r[u.b] + u.imm
			if p := mem.Hit(a, 4, seg.Write); p != nil {
				v := r[u.d]
				if u.kind == Sf {
					v = math.Float32bits(float32(f[u.d]))
				}
				binary.LittleEndian.PutUint32(p[a%seg.PageSize:], v)
				if trace != nil {
					trace(a, 4, false)
				}
				continue
			}
			size, need = 4, seg.Write
		case Sd:
			a = r[u.a] + r[u.b] + u.imm
			if p := mem.Hit(a, 8, seg.Write); p != nil {
				binary.LittleEndian.PutUint64(p[a%seg.PageSize:], math.Float64bits(f[u.d]))
				if trace != nil {
					trace(a, 8, false)
				}
				continue
			}
			size, need = 8, seg.Write
		case opMemSrc:
			a = r[u.a] + u.imm
			if p := mem.Hit(a, 4, seg.Read); p != nil {
				r[u.d] = aluApply(u.alu, r[u.b], binary.LittleEndian.Uint32(p[a%seg.PageSize:]))
				continue
			}
			size, need = 4, seg.Read
		case opMemDst:
			a = u.imm
			size, need = 4, seg.Read
			if p := mem.Hit(a, 4, seg.Read); p != nil {
				v := aluApply(u.alu, binary.LittleEndian.Uint32(p[a%seg.PageSize:]), r[u.b]+uint32(u.tgt))
				if p := mem.Hit(a, 4, seg.Write); p != nil {
					binary.LittleEndian.PutUint32(p[a%seg.PageSize:], v)
					if trace != nil {
						trace(a, 4, false)
					}
					continue
				}
				need = seg.Write
			}

		// FP arithmetic: single-precision forms round through float32,
		// exactly as the interpreter does.
		case FaddS:
			f[u.d] = float64(float32(f[u.a]) + float32(f[u.b]))
		case FsubS:
			f[u.d] = float64(float32(f[u.a]) - float32(f[u.b]))
		case FmulS:
			f[u.d] = float64(float32(f[u.a]) * float32(f[u.b]))
		case FdivS:
			f[u.d] = float64(float32(f[u.a]) / float32(f[u.b]))
		case FaddD:
			f[u.d] = f[u.a] + f[u.b]
		case FsubD:
			f[u.d] = f[u.a] - f[u.b]
		case FmulD:
			f[u.d] = f[u.a] * f[u.b]
		case FdivD:
			f[u.d] = f[u.a] / f[u.b]
		case FnegS:
			f[u.d] = float64(-float32(f[u.a]))
		case FnegD:
			f[u.d] = -f[u.a]
		case FabsS:
			f[u.d] = float64(float32(math.Abs(f[u.a])))
		case FabsD:
			f[u.d] = math.Abs(f[u.a])
		case Fmov:
			f[u.d] = f[u.a]
		case MovWF:
			f[u.d] = float64(math.Float32frombits(r[u.a]))
		case MovFW:
			r[u.d] = math.Float32bits(float32(f[u.a]))
		case CvtWS:
			f[u.d] = float64(float32(int32(r[u.a])))
		case CvtWD:
			f[u.d] = float64(int32(r[u.a]))
		case CvtSW:
			r[u.d] = uint32(truncToI32(float64(float32(f[u.a]))))
		case CvtDW:
			r[u.d] = uint32(truncToI32(f[u.a]))
		case CvtSD:
			f[u.d] = float64(float32(f[u.a]))

		// Control transfers.
		case Bcc:
			if intCC(u.cc, s.ia, s.ib) {
				s.pc = u.tgt
			}
		case FBcc:
			if fpCC(u.cc, s.fa, s.fb) {
				s.pc = u.tgt
			}
		case Beq:
			if r[u.a] == r[u.b] {
				s.pc = u.tgt
			}
		case Bne:
			if r[u.a] != r[u.b] {
				s.pc = u.tgt
			}
		case Bltz:
			if int32(r[u.a]) < 0 {
				s.pc = u.tgt
			}
		case Blez:
			if int32(r[u.a]) <= 0 {
				s.pc = u.tgt
			}
		case Bgtz:
			if int32(r[u.a]) > 0 {
				s.pc = u.tgt
			}
		case Bgez:
			if int32(r[u.a]) >= 0 {
				s.pc = u.tgt
			}
		case Jal:
			r[u.d] = u.imm
			s.pc = u.tgt
		case Jalr:
			v := r[u.a] // read before the link write: jalr rd, rd is legal
			r[u.d] = u.imm
			// A runtime code address is an OmniVM index in a translated
			// program, a native index otherwise.
			if o2n := s.Prog.OmniToNative; o2n == nil {
				s.pc = int32(v)
			} else if v < uint32(len(o2n)) {
				s.pc = o2n[v]
			} else {
				return from + int32(i), excBadJump, v
			}
		}
		if size == 0 {
			continue
		}
		// A TLB miss: check the access, then run the instruction again
		// (now a hit).
		if _, flt := mem.Fill(a, size, need); flt != nil {
			if need == seg.Write && trace != nil {
				trace(a, uint32(size), true)
			}
			return from + int32(i), faultKind(flt), a
		}
		i--
	}
	return -1, 0, 0
}

func intCC(cc CC, a, b uint32) bool {
	switch cc {
	case CCEq:
		return a == b
	case CCNe:
		return a != b
	case CCLt:
		return int32(a) < int32(b)
	case CCLe:
		return int32(a) <= int32(b)
	case CCGt:
		return int32(a) > int32(b)
	case CCGe:
		return int32(a) >= int32(b)
	case CCLtU:
		return a < b
	case CCLeU:
		return a <= b
	case CCGtU:
		return a > b
	case CCGeU:
		return a >= b
	}
	return false
}

func fpCC(cc CC, a, b float64) bool {
	switch cc {
	case CCEq:
		return a == b
	case CCNe:
		return a != b
	case CCLt, CCLtU:
		return a < b
	case CCLe, CCLeU:
		return a <= b
	case CCGt, CCGtU:
		return a > b
	case CCGe, CCGeU:
		return a >= b
	}
	return false
}

// aluApply evaluates a two-operand ALU operation for the
// register-memory forms (immediate opcodes take the same data path).
func aluApply(op Op, a, b uint32) uint32 {
	switch op {
	case Add, AddI, Lea:
		return a + b
	case Sub:
		return a - b
	case Mul:
		return uint32(int32(a) * int32(b))
	case And, AndI:
		return a & b
	case Or, OrI:
		return a | b
	case Xor, XorI:
		return a ^ b
	case Sll, SllI:
		return a << (b & 31)
	case Srl, SrlI:
		return a >> (b & 31)
	case Sra, SraI:
		return uint32(int32(a) >> (b & 31))
	case Slt, SltI:
		return b2u(int32(a) < int32(b))
	case Sltu, SltuI:
		return b2u(a < b)
	}
	return a
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// truncToI32 converts with the OmniVM's defined float-to-int
// semantics: truncation toward zero, out-of-range clamped, NaN to 0.
func truncToI32(v float64) int32 {
	if math.IsNaN(v) {
		return 0
	}
	if v >= math.MaxInt32 {
		return math.MaxInt32
	}
	if v <= math.MinInt32 {
		return math.MinInt32
	}
	return int32(v)
}
