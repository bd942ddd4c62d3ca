// Package core is the Omniware system itself: the host-side runtime
// that compiles OmniC to OmniVM modules, loads modules into a segmented
// address space, and executes them either by abstract-machine
// interpretation or by load-time translation (with software fault
// isolation) to one of the four simulated targets. The public omniware
// package at the repository root is a thin facade over this package.
package core

import (
	"fmt"
	"io"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"

	"omniware/internal/asm"
	"omniware/internal/cc"
	"omniware/internal/cc/ir"
	"omniware/internal/hostapi"
	"omniware/internal/interp"
	"omniware/internal/link"
	"omniware/internal/native"
	"omniware/internal/ovm"
	"omniware/internal/seg"
	"omniware/internal/target"
	"omniware/internal/translate"
)

// ErrBudget and ErrInterrupted re-export the hostapi sentinels for the
// two host-initiated run terminations: instruction-budget exhaustion
// and the external interrupt (the serving layer's deadline watchdog).
// Both executors wrap them; classify with errors.Is.
var (
	ErrBudget      = hostapi.ErrBudget
	ErrInterrupted = hostapi.ErrInterrupted
)

// SourceFile is one OmniC translation unit.
type SourceFile struct {
	Name string
	Src  string
}

// BuildC compiles OmniC sources, assembles them, links in the startup
// stub, and returns the executable module — the full producer-side
// pipeline of the paper's Figure 2.
func BuildC(files []SourceFile, opts cc.Options) (*ovm.Module, error) {
	objs := []*ovm.Object{}
	crt, err := asm.Assemble("crt0.s", cc.Crt0)
	if err != nil {
		return nil, fmt.Errorf("core: crt0: %w", err)
	}
	objs = append(objs, crt)
	for _, f := range files {
		res, err := cc.Compile(f.Name, f.Src, opts)
		if err != nil {
			return nil, err
		}
		obj, err := asm.Assemble(f.Name+".s", res.Asm)
		if err != nil {
			return nil, fmt.Errorf("core: assembling output of %s: %w", f.Name, err)
		}
		objs = append(objs, obj)
	}
	return link.Link(objs, link.Options{})
}

// BuildAsm assembles and links OmniVM assembly sources (first file may
// define _start; otherwise the crt0 stub is prepended).
func BuildAsm(files []SourceFile, withCrt0 bool) (*ovm.Module, error) {
	var objs []*ovm.Object
	if withCrt0 {
		crt, err := asm.Assemble("crt0.s", cc.Crt0)
		if err != nil {
			return nil, err
		}
		objs = append(objs, crt)
	}
	for _, f := range files {
		o, err := asm.Assemble(f.Name, f.Src)
		if err != nil {
			return nil, err
		}
		objs = append(objs, o)
	}
	return link.Link(objs, link.Options{})
}

// RunConfig controls module execution.
type RunConfig struct {
	Heap     uint32 // heap size (0 = default)
	Stack    uint32
	MaxSteps uint64 // instruction budget (0 = default 2e9)
	// Out receives module output. nil does NOT discard: it captures
	// into an internal buffer readable with Host.Output, which is what
	// tests and the parity harness rely on. Callers that truly want to
	// drop output pass io.Discard.
	Out io.Writer

	// Interrupt, when non-nil, is polled by the translated-code
	// simulators; once it reports true the run aborts with an error.
	// This is the serving layer's per-job timeout hook (the simulators
	// otherwise run until exit or budget exhaustion).
	Interrupt *atomic.Bool

	// HostData, when non-nil, maps an additional "host" segment at
	// HostBase that the module has no write permission for — used by
	// the safety demos and fault-injection tests.
	HostData []byte
	HostBase uint32

	// StoreTrace, when non-nil, is installed on the native simulator
	// (target.Sim.StoreTrace) so every store the program issues is
	// observed. The SFI differential harness uses it as its soundness
	// oracle. Interpreter runs ignore it.
	StoreTrace func(addr, size uint32, faulted bool)
}

func (c *RunConfig) maxSteps() uint64 {
	if c.MaxSteps == 0 {
		return 2_000_000_000
	}
	return c.MaxSteps
}

// Host is a loaded execution environment for one module.
type Host struct {
	Mod     *ovm.Module
	Mem     seg.Memory
	Lay     *hostapi.Layout
	Env     *hostapi.Env
	HostSeg *seg.Segment
	out     *strings.Builder
	cfg     RunConfig

	// Pooled-host state (AcquireHost). pool is nil for hosts built with
	// NewHost; such hosts ignore Release. A pooled host permanently owns
	// dseg, a dirty-tracked data segment scrubbed on reuse, and embeds
	// its layout, environment, and simulator by value so a warm-cache
	// job allocates nothing.
	pool    *sync.Pool
	dseg    *seg.Segment
	layv    hostapi.Layout
	envv    hostapi.Env
	sim     target.Sim
	capture bool
}

// hostPools holds recycled hosts bucketed by log2 of the data-segment
// size: layout geometry is deterministic in (module, heap, stack) and
// segment sizes are powers of two, so a host whose segment matches the
// planned size fits the module exactly.
var hostPools [33]sync.Pool

// AcquireHost returns a host loaded for mod, reusing a pooled address
// space when one of the right size class is available. The fast path
// allocates nothing: the pooled segment is scrubbed page-by-page using
// its dirty bitmap rather than reallocated (16 MB of zeroing and GC
// pressure per job otherwise — the dominant per-job fixed cost the
// load benchmarks expose). Callers must Release the host when done;
// hosts needing a HostData segment fall back to NewHost semantics and
// Release is a no-op for them.
func AcquireHost(mod *ovm.Module, cfg RunConfig) (*Host, error) {
	if cfg.HostData != nil {
		return NewHost(mod, cfg)
	}
	p := hostapi.PlanLayout(mod, cfg.Heap, cfg.Stack)
	if p.SegSize == 0 || p.SegSize&(p.SegSize-1) != 0 {
		return nil, fmt.Errorf("core: planned segment size %#x is not a power of two; refusing to derive an SFI mask", p.SegSize)
	}
	pool := &hostPools[bits.TrailingZeros32(p.SegSize)]
	h, _ := pool.Get().(*Host)
	if h == nil {
		h = &Host{out: &strings.Builder{}}
		s, err := seg.NewPooledSegment("module-data", mod.DataBase, p.SegSize, seg.Read|seg.Write)
		if err != nil {
			return nil, err
		}
		h.dseg = s
	}
	h.pool = pool
	h.Mod = mod
	h.cfg = cfg
	h.Mem.Reset()
	lay, err := hostapi.LoadInto(&h.Mem, h.dseg, mod, cfg.Heap, cfg.Stack)
	if err != nil {
		h.pool = nil
		return nil, err
	}
	h.layv = lay
	h.Lay = &h.layv
	out := cfg.Out
	h.capture = out == nil
	if h.capture {
		h.out.Reset()
		out = h.out
	}
	h.envv.Reset(&h.Mem, h.Lay, out)
	h.Env = &h.envv
	return h, nil
}

// Release returns a pooled host's address space for reuse. It clears
// every reference to the job's module and config so the pool does not
// pin them; the segment itself stays with the host and is scrubbed on
// the next Acquire. Safe to call on NewHost-built hosts (no-op) and
// on nil.
func (h *Host) Release() {
	if h == nil || h.pool == nil {
		return
	}
	pool := h.pool
	h.pool = nil
	h.Mod = nil
	h.cfg = RunConfig{}
	h.Lay = nil
	h.Env = nil
	h.layv = hostapi.Layout{}
	h.envv = hostapi.Env{}
	h.sim.Release()
	h.Mem.Reset()
	h.out.Reset()
	h.capture = false
	pool.Put(h)
}

// NewHost loads the module's data segment (and optional host segment)
// into a fresh address space.
func NewHost(mod *ovm.Module, cfg RunConfig) (*Host, error) {
	h := &Host{Mod: mod, cfg: cfg}
	lay, err := hostapi.Load(&h.Mem, mod, cfg.Heap, cfg.Stack)
	if err != nil {
		return nil, err
	}
	// The SFI sandbox masks addresses into the data segment with
	// DataMask = size-1, which is only a mask if the size is a power of
	// two. The loader rounds sizes up to guarantee that, but a corrupt
	// mask would silently break every SFI proof, so check here rather
	// than trust the invariant.
	if sz := lay.Seg.Size(); sz == 0 || sz&(sz-1) != 0 {
		return nil, fmt.Errorf("core: data segment size %#x is not a power of two; refusing to derive an SFI mask", sz)
	}
	h.Lay = lay
	out := cfg.Out
	if out == nil {
		h.out = &strings.Builder{}
		out = h.out
		h.capture = true
	}
	h.Env = hostapi.NewEnv(&h.Mem, lay, out)
	if cfg.HostData != nil {
		base := cfg.HostBase
		if base == 0 {
			base = 0x40000000
		}
		s, err := h.Mem.Map("host", base, uint32(len(cfg.HostData)), seg.Read)
		if err != nil {
			return nil, err
		}
		copy(s.Bytes(), cfg.HostData)
		h.HostSeg = s
	}
	return h, nil
}

// Output returns captured module output (when cfg.Out was nil).
func (h *Host) Output() string {
	if h.out == nil || !h.capture {
		return ""
	}
	return h.out.String()
}

// SegInfo derives the translator's segment description.
func (h *Host) SegInfo() translate.SegInfo {
	return translate.SegInfo{
		DataBase: h.Lay.Seg.Base,
		DataMask: h.Lay.Seg.Size() - 1,
		GPValue:  h.Mod.DataBase + 0x8000,
		RegSave:  h.Lay.RegSave,
	}
}

// SegInfoFor computes the segment description NewHost(mod, cfg) will
// produce, without building a host. Hosts of the same module and the
// same heap/stack budgets share it, so a program translated against it
// is valid in every such host — the property the translation cache is
// keyed on.
func SegInfoFor(mod *ovm.Module, cfg RunConfig) translate.SegInfo {
	p := hostapi.PlanLayout(mod, cfg.Heap, cfg.Stack)
	return translate.SegInfo{
		DataBase: mod.DataBase,
		DataMask: p.SegSize - 1,
		GPValue:  mod.DataBase + 0x8000,
		RegSave:  p.RegSave,
	}
}

// RunInterp executes the module on the OmniVM interpreter.
func (h *Host) RunInterp() (interp.Result, error) {
	mc := interp.New(h.Mod, &h.Mem, h.Env)
	mc.MaxSteps = h.cfg.maxSteps()
	return mc.Run()
}

// Translate runs the load-time translator for mach.
func (h *Host) Translate(mach *target.Machine, opt translate.Options) (*target.Program, error) {
	return translate.Translate(h.Mod, mach, h.SegInfo(), opt)
}

// RunProgram executes a translated (or natively compiled) program.
// The program need not have been produced by this host: any program
// translated for the same module, machine and SegInfo runs unchanged —
// this is the run-from-cached-program path the serving layer uses to
// pay translation cost once across many sandboxed instances. Programs
// are read-only during execution, so one may run in any number of
// hosts concurrently.
func (h *Host) RunProgram(mach *target.Machine, prog *target.Program) (target.Result, error) {
	if prog.Arch != mach.Arch {
		return target.Result{}, fmt.Errorf("core: program compiled for %s cannot run on %s", prog.Arch, mach.Arch)
	}
	s := &h.sim
	if h.pool == nil {
		// Unpooled hosts may share programs across goroutines; give each
		// run its own simulator as before.
		s = target.New(mach, prog, &h.Mem, h.Env)
	} else {
		s.Reset(mach, prog, &h.Mem, h.Env)
	}
	s.MaxInsts = h.cfg.maxSteps()
	s.Interrupt = h.cfg.Interrupt
	s.StoreTrace = h.cfg.StoreTrace
	return s.Run()
}

// RunTranslated is the one-call path: translate then execute.
func (h *Host) RunTranslated(mach *target.Machine, opt translate.Options) (target.Result, *target.Program, error) {
	prog, err := h.Translate(mach, opt)
	if err != nil {
		return target.Result{}, nil, err
	}
	res, err := h.RunProgram(mach, prog)
	return res, prog, err
}

// BuildIRFuncs compiles OmniC sources to optimized IR for the native
// back ends (the cc/gcc baselines), mirroring the front half of BuildC.
func BuildIRFuncs(files []SourceFile, opts cc.Options) ([]*ir.Func, error) {
	var funcs []*ir.Func
	names := map[string]bool{}
	for _, f := range files {
		fs, _, err := cc.BuildIR(f.Name, f.Src, opts)
		if err != nil {
			return nil, err
		}
		for _, fn := range fs {
			if names[fn.Name] {
				return nil, fmt.Errorf("core: function %q defined in multiple units", fn.Name)
			}
			names[fn.Name] = true
		}
		funcs = append(funcs, fs...)
	}
	return funcs, nil
}

// CompileNative produces a native program (the vendor-compiler
// baseline) against this host's loaded module, binds its FP constant
// pool into the heap, and patches code pointers in the data image from
// OmniVM indices to native indices.
func (h *Host) CompileNative(mach *target.Machine, prof native.Profile, funcs []*ir.Func) (*target.Program, error) {
	res, err := native.Compile(funcs, h.Mod, mach, prof, h.Lay.RegSave)
	if err != nil {
		return nil, err
	}
	// FP constant pool: carve space from the heap.
	poolBase := (h.Lay.Brk + 7) &^ 7
	bytes := res.Bind(poolBase)
	if len(bytes) > 0 {
		newBrk := poolBase + uint32(len(bytes))
		if newBrk > h.Lay.HeapLimit {
			return nil, fmt.Errorf("core: FP constant pool exceeds heap")
		}
		h.Lay.Brk = newBrk
		if f := h.Mem.WriteBytes(poolBase, bytes); f != nil {
			return nil, f
		}
	}
	// Patch code pointers in the data image.
	if len(h.Mod.CodePtrs) > 0 {
		omniToName := map[uint32]string{}
		for _, s := range h.Mod.Symbols {
			if s.Section == ovm.SecText {
				omniToName[s.Value] = s.Name
			}
		}
		for _, off := range h.Mod.CodePtrs {
			addr := h.Mod.DataBase + off
			w, f := h.Mem.LoadU32(addr)
			if f != nil {
				return nil, f
			}
			name, ok := omniToName[w]
			if !ok {
				return nil, fmt.Errorf("core: code pointer at %#x references unknown index %d", addr, w)
			}
			entry, ok := res.FuncEntry[name]
			if !ok {
				return nil, fmt.Errorf("core: code pointer to %q has no native entry", name)
			}
			if f := h.Mem.StoreU32(addr, uint32(entry)); f != nil {
				return nil, f
			}
		}
	}
	return res.Prog, nil
}

// RunNative compiles with the given baseline profile and executes.
func (h *Host) RunNative(mach *target.Machine, prof native.Profile, funcs []*ir.Func) (target.Result, error) {
	prog, err := h.CompileNative(mach, prof, funcs)
	if err != nil {
		return target.Result{}, err
	}
	return h.RunProgram(mach, prog)
}
