package target

import (
	"errors"
	"io"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"omniware/internal/hostapi"
	"omniware/internal/seg"
)

const testData = 0x10000

// newTestSim prepares a run of prog on m over one 64 KiB data segment
// (which also holds the register-save area x86 needs).
func newTestSim(t *testing.T, m *Machine, prog *Program) *Sim {
	t.Helper()
	mem := &seg.Memory{}
	if _, err := mem.Map("data", testData, 0x10000, seg.Read|seg.Write); err != nil {
		t.Fatal(err)
	}
	lay := &hostapi.Layout{StackTop: testData + 0x8000, RegSave: testData + 0xf000}
	return New(m, prog, mem, hostapi.NewEnv(mem, lay, io.Discard))
}

// storeLoop is an endless loop that stores a counter every iteration:
//
//	0: movi a, testData
//	1: addi b, b, 1
//	2: sw   b, 0(a)
//	3: j    1
//	4: nop              (delay-slot machines)
func storeLoop(m *Machine) *Program {
	a, b := m.Scratch[0], m.Scratch[1]
	code := []Inst{
		{Op: MovI, Rd: a, Rs1: NoReg, Rs2: NoReg, Imm: testData},
		{Op: AddI, Rd: b, Rs1: b, Rs2: NoReg, Imm: 1},
		{Op: Sw, Rd: b, Rs1: a, Rs2: NoReg},
		{Op: J, Rd: NoReg, Rs1: NoReg, Rs2: NoReg, Target: 1},
	}
	if m.HasDelaySlot {
		code = append(code, Inst{Op: Nop, Rd: NoReg, Rs1: NoReg, Rs2: NoReg})
	}
	return &Program{Arch: m.Arch, Code: code}
}

// budgetStop is where a run of storeLoop with budget n stops: the
// budget is checked before each executed instruction, and a control
// transfer on a delay-slot machine executes its slot in the same step,
// so the count can pass n by one.
func budgetStop(m *Machine, n uint64) uint64 {
	steps := []uint64{1, 1, 1, 1} // movi, then addi, sw, j per iteration
	if m.HasDelaySlot {
		steps[3] = 2
	}
	var insts uint64
	for i := 0; insts < n; i++ {
		if i >= len(steps) {
			i = 1
		}
		insts += steps[i]
	}
	return insts
}

func TestBudgetStopsAtSameCount(t *testing.T) {
	for _, m := range Machines() {
		for _, n := range []uint64{1, 2, 3, 4, 5, 8, 4095, 4096, 4097, 10000} {
			for _, poll := range []bool{false, true} {
				s := newTestSim(t, m, storeLoop(m))
				s.MaxInsts = n
				if poll {
					s.Interrupt = new(atomic.Bool)
				}
				_, err := s.Run()
				if !errors.Is(err, ErrBudget) {
					t.Fatalf("%s budget %d: err %v, want ErrBudget", m.Name, n, err)
				}
				if want := budgetStop(m, n); s.insts != want {
					t.Errorf("%s budget %d (interrupt polled %v): stopped after %d instructions, want %d", m.Name, n, poll, s.insts, want)
				}
			}
		}
	}
}

func TestInterruptAbortsWithinPollInterval(t *testing.T) {
	for _, m := range Machines() {
		for _, raiseAt := range []int{1, 2, 1000, 1366, 5000, 12345} {
			s := newTestSim(t, m, storeLoop(m))
			s.MaxInsts = 1 << 20
			var stop atomic.Bool
			s.Interrupt = &stop
			var stores int
			var raisedAt uint64
			s.StoreTrace = func(addr, size uint32, faulted bool) {
				if stores++; stores == raiseAt {
					stop.Store(true)
					raisedAt = s.insts
				}
			}
			_, err := s.Run()
			if !errors.Is(err, ErrInterrupted) {
				t.Fatalf("%s raised at store %d: err %v, want ErrInterrupted", m.Name, raiseAt, err)
			}
			if late := s.insts - raisedAt; late > pollEvery+2 {
				t.Errorf("%s raised at store %d: aborted %d instructions after the raise, want at most %d", m.Name, raiseAt, late, pollEvery+2)
			}
		}
	}
}

func TestInterruptRaisedBeforeRun(t *testing.T) {
	for _, m := range Machines() {
		s := newTestSim(t, m, storeLoop(m))
		s.Interrupt = new(atomic.Bool)
		s.Interrupt.Store(true)
		if _, err := s.Run(); !errors.Is(err, ErrInterrupted) || s.insts != 0 {
			t.Errorf("%s: err %v after %d instructions, want ErrInterrupted before the first", m.Name, err, s.insts)
		}
	}
}

// A copy of a run Program with its own, altered Code must run the
// altered code and be charged for it, not reuse the original's issue
// facts.
func TestPredecodeFollowsCopiedCode(t *testing.T) {
	m := MIPSMachine()
	exit := m.OmniInt[1]
	orig := &Program{Arch: m.Arch, Code: []Inst{
		{Op: MovI, Rd: exit, Rs1: NoReg, Rs2: NoReg, Imm: 5},
		{Op: Lui, Rd: 8, Rs1: NoReg, Rs2: NoReg, Imm: testData >> 16},
		{Op: Lw, Rd: 3, Rs1: 8, Rs2: NoReg},
		{Op: Add, Rd: 9, Rs1: 10, Rs2: 10},
		{Op: Nop, Rd: NoReg, Rs1: NoReg, Rs2: NoReg},
		{Op: Nop, Rd: NoReg, Rs1: NoReg, Rs2: NoReg},
		{Op: MovI, Rd: exit, Rs1: NoReg, Rs2: NoReg, Imm: 9},
		{Op: Halt, Rd: NoReg, Rs1: NoReg, Rs2: NoReg},
	}}
	run := func(p *Program) (Result, *Sim) {
		t.Helper()
		s := newTestSim(t, m, p)
		if f := s.Mem.StoreU32(testData, 42); f != nil {
			t.Fatal(f)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, s
	}
	before, _ := run(orig)
	if before.ExitCode != 9 || before.Insts != 8 {
		t.Fatalf("original: exit %d after %d instructions, want 9 after 8", before.ExitCode, before.Insts)
	}

	for _, c := range []struct {
		name string
		at   int
		in   Inst
		exit int32
	}{
		// Nop -> J past the final movi: the delay slot runs, then halt.
		{"nop into jump", 4, Inst{Op: J, Rd: NoReg, Rs1: NoReg, Rs2: NoReg, Target: 7}, 5},
		// ALU op -> store of the loaded value: waits a cycle on the load.
		{"alu into store", 3, Inst{Op: Sw, Rd: 3, Rs1: 8, Rs2: NoReg, Imm: 4}, 9},
	} {
		clone := *orig
		clone.Code = append([]Inst(nil), orig.Code...)
		clone.Code[c.at] = c.in
		got, s := run(&clone)
		fresh, _ := run(&Program{Arch: m.Arch, Code: append([]Inst(nil), clone.Code...)})
		if got != fresh {
			t.Errorf("%s: clone ran as %+v, the same code in a fresh program as %+v", c.name, got, fresh)
		}
		if got.ExitCode != c.exit {
			t.Errorf("%s: exit %d, want %d", c.name, got.ExitCode, c.exit)
		}
		if c.in.Op == Sw {
			if v, _ := s.Mem.LoadU32(testData + 4); v != 42 || got.Cycles != before.Cycles+1 {
				t.Errorf("%s: stored %d in %d cycles, want 42 in %d", c.name, v, got.Cycles, before.Cycles+1)
			}
		}
	}
	if again, _ := run(orig); again != before {
		t.Errorf("original after its copies ran: %+v, want %+v", again, before)
	}
}

// Programs are copied by value (tests and tools clone them), so the
// predecode cache must not put a lock or atomic value in Program:
// go vet's copylocks check would reject every copy.
func TestProgramHoldsNoLock(t *testing.T) {
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		if pkg := ty.PkgPath(); pkg == "sync" || pkg == "sync/atomic" {
			t.Errorf("Program%s is a %s value", path, ty)
		}
		if _, ok := reflect.PointerTo(ty).MethodByName("Lock"); ok {
			t.Errorf("Program%s (%s) has a Lock method", path, ty)
		}
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		}
	}
	walk("", reflect.TypeOf(Program{}))
}

// One Program run from many goroutines at once shares one predecoded
// table; every run must see complete facts (run with -race).
func TestProgramRunsConcurrently(t *testing.T) {
	for _, m := range Machines() {
		prog := storeLoop(m)
		var wg sync.WaitGroup
		results := make([]uint64, 8)
		for i := range results {
			s := newTestSim(t, m, prog)
			s.MaxInsts = 5000
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if _, err := s.Run(); !errors.Is(err, ErrBudget) {
					t.Errorf("%s: %v", m.Name, err)
				}
				results[i] = s.Cycles()
			}(i)
		}
		wg.Wait()
		for i, c := range results {
			if c != results[0] {
				t.Errorf("%s: run %d took %d cycles, run 0 %d", m.Name, i, c, results[0])
			}
		}
	}
}

func TestPredecodeEntrySize(t *testing.T) {
	if got := reflect.TypeOf(issueFact{}).Size(); got != PredecodeBytesPerInst {
		t.Errorf("issueFact is %d bytes, PredecodeBytesPerInst says %d", got, PredecodeBytesPerInst)
	}
}
