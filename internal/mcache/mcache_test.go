package mcache_test

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"omniware/internal/cc"
	"omniware/internal/core"
	"omniware/internal/mcache"
	"omniware/internal/ovm"
	"omniware/internal/serve/metrics"
	"omniware/internal/target"
	"omniware/internal/translate"
)

// stats reads the cache's counters into a snapshot.
func stats(c *mcache.Cache) metrics.Snapshot {
	var s metrics.Snapshot
	c.Counters().AddTo(&s)
	return s
}

func buildMod(t *testing.T, src string) *ovm.Module {
	t.Helper()
	mod, err := core.BuildC([]core.SourceFile{{Name: "p.c", Src: src}}, cc.Options{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

const prog1 = `
int g[64];
int main(void) {
	int i, acc = 0;
	for (i = 0; i < 64; i++) { g[i] = i * 3; acc += g[i]; }
	_print_int(acc);
	return acc & 0xff;
}`

func TestHitMissAndSharing(t *testing.T) {
	mod := buildMod(t, prog1)
	c := mcache.New(0)
	m := target.MIPSMachine()
	si := core.SegInfoFor(mod, core.RunConfig{})
	opt := translate.Paper(true)

	p1, served, err := c.Translate(mod, m, si, opt)
	if err != nil {
		t.Fatal(err)
	}
	if served {
		t.Error("first lookup reported as served from cache")
	}
	p2, served, err := c.Translate(mod, m, si, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !served || p2 != p1 {
		t.Errorf("second lookup not a hit on the same program (served=%v)", served)
	}
	s := stats(c)
	if s.CacheMisses != 1 || s.CacheHits != 1 || s.CacheEntries != 1 {
		t.Errorf("stats %+v", s)
	}

	// The cached program runs correctly in a fresh host and matches the
	// interpreter.
	h, err := core.NewHost(mod, core.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := h.RunInterp()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := core.NewHost(mod, core.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h2.RunProgram(m, p1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faulted || res.ExitCode != ref.ExitCode || h2.Output() != h.Output() {
		t.Errorf("cached program diverged: %+v vs %+v", res, ref)
	}
}

func TestKeySeparation(t *testing.T) {
	mod := buildMod(t, prog1)
	other := buildMod(t, `int main(void){ return 7; }`)
	c := mcache.New(0)
	si := core.SegInfoFor(mod, core.RunConfig{})
	sio := core.SegInfoFor(other, core.RunConfig{})
	hoist := translate.Paper(true)
	hoist.SFIHoist = true

	lookups := []struct {
		mod *ovm.Module
		m   *target.Machine
		si  translate.SegInfo
		opt translate.Options
	}{
		{mod, target.MIPSMachine(), si, translate.Paper(true)},
		{mod, target.SPARCMachine(), si, translate.Paper(true)},   // machine differs
		{mod, target.MIPSMachine(), si, hoist},                    // options differ
		{other, target.MIPSMachine(), sio, translate.Paper(true)}, // module differs
	}
	for i, l := range lookups {
		if _, served, err := c.Translate(l.mod, l.m, l.si, l.opt); err != nil || served {
			t.Errorf("lookup %d: served=%v err=%v (want distinct miss)", i, served, err)
		}
	}
	if s := stats(c); s.CacheMisses != 4 || s.CacheEntries != 4 {
		t.Errorf("stats %+v", s)
	}
}

func TestUnsandboxedRefused(t *testing.T) {
	mod := buildMod(t, prog1)
	c := mcache.New(0)
	si := core.SegInfoFor(mod, core.RunConfig{})
	if _, _, err := c.Translate(mod, target.MIPSMachine(), si, translate.Paper(false)); !errors.Is(err, mcache.ErrUnsandboxed) {
		t.Errorf("non-SFI translation not refused: %v", err)
	}
	if err := c.Insert(mod, target.MIPSMachine(), si, translate.Paper(false), &target.Program{}); !errors.Is(err, mcache.ErrUnsandboxed) {
		t.Errorf("non-SFI insert not refused: %v", err)
	}
}

// progBytes is what a cached program holds: its instructions, its
// index map and its predecoded tables for m.
func progBytes(p *target.Program, m *target.Machine) int64 {
	return int64(len(p.Code))*int64(unsafe.Sizeof(target.Inst{})) + int64(len(p.OmniToNative))*4 + p.Predecode(m)
}

// The byte budget must count what a cached program really holds: its
// code, its index map and the predecoded tables admission builds, the
// same before its first run and after.
func TestCodeBytesCountPredecodedTable(t *testing.T) {
	mod := buildMod(t, prog1)
	m := target.X86Machine()
	cfg := core.RunConfig{}
	si := core.SegInfoFor(mod, cfg)
	c := mcache.New(0)
	prog, _, err := c.Translate(mod, m, si, translate.Paper(true))
	if err != nil {
		t.Fatal(err)
	}
	tables := prog.Predecode(m)
	want := int64(len(prog.Code))*int64(unsafe.Sizeof(target.Inst{})) + int64(len(prog.OmniToNative))*4 + tables
	if got := int64(stats(c).CacheBytes); got != want {
		t.Errorf("cache_bytes = %d, want %d (%d instructions, %d index entries, %d table bytes)",
			got, want, len(prog.Code), len(prog.OmniToNative), tables)
	}
	if tables < int64(len(prog.Code))*(8+16) {
		t.Errorf("predecoded tables of %d instructions counted as %d bytes, less than their issue facts and micro-ops", len(prog.Code), tables)
	}
	h, err := core.NewHost(mod, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.RunProgram(m, prog); err != nil {
		t.Fatal(err)
	}
	if got := int64(stats(c).CacheBytes); got != want {
		t.Errorf("cache_bytes after a run = %d, want %d", got, want)
	}
}

func TestLRUEvictionByCodeSize(t *testing.T) {
	srcs := []string{
		`int main(void){ return 1; }`,
		`int main(void){ int i, a = 0; for (i = 0; i < 9; i++) a += i; return a; }`,
		`int g[8]; int main(void){ int i; for (i = 0; i < 8; i++) g[i] = i; return g[3]; }`,
	}
	mods := make([]*ovm.Module, len(srcs))
	sis := make([]translate.SegInfo, len(srcs))
	m := target.MIPSMachine()
	opt := translate.Paper(true)
	var sizes []int64
	for i, src := range srcs {
		mods[i] = buildMod(t, src)
		sis[i] = core.SegInfoFor(mods[i], core.RunConfig{})
		p, err := translate.Translate(mods[i], m, sis[i], opt)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, progBytes(p, m))
	}
	// Budget for roughly two of the three programs.
	limit := sizes[0] + sizes[1] + sizes[2] - sizes[0]/2
	c := mcache.New(limit)
	for i := range mods {
		if _, _, err := c.Translate(mods[i], m, sis[i], opt); err != nil {
			t.Fatal(err)
		}
	}
	s := stats(c)
	if s.CacheEvictions == 0 {
		t.Fatalf("no evictions under limit %d: %+v", limit, s)
	}
	if int64(s.CacheBytes) > limit {
		t.Errorf("cache over budget: %d > %d", s.CacheBytes, limit)
	}
	// Most recently used entry must still be resident.
	if _, served, err := c.Translate(mods[len(mods)-1], m, sis[len(mods)-1], opt); err != nil || !served {
		t.Errorf("most recent entry evicted (served=%v err=%v)", served, err)
	}
}

func TestSingleflightDeduplication(t *testing.T) {
	mod := buildMod(t, prog1)
	c := mcache.New(0)
	m := target.PPCMachine()
	si := core.SegInfoFor(mod, core.RunConfig{})
	opt := translate.Paper(true)

	const n = 16
	var wg sync.WaitGroup
	progs := make([]*target.Program, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			progs[i], _, errs[i] = c.Translate(mod, m, si, opt)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if progs[i] != progs[0] {
			t.Fatalf("caller %d got a different program", i)
		}
	}
	s := stats(c)
	if s.CacheMisses != 1 {
		t.Errorf("%d translations for one key (stats %+v)", s.CacheMisses, s)
	}
	if s.CacheHits+s.CacheCoalesced != n-1 {
		t.Errorf("hits %d + coalesced %d != %d", s.CacheHits, s.CacheCoalesced, n-1)
	}
}

func TestInsertRejectsTamperedProgram(t *testing.T) {
	mod := buildMod(t, prog1)
	m := target.MIPSMachine()
	si := core.SegInfoFor(mod, core.RunConfig{})
	opt := translate.Paper(true)
	prog, err := translate.Translate(mod, m, si, opt)
	if err != nil {
		t.Fatal(err)
	}
	c := mcache.New(0)
	// The honest translation is admitted.
	if err := c.Insert(mod, m, si, opt, prog); err != nil {
		t.Fatalf("clean translation rejected: %v", err)
	}
	// Strip one sandboxing mask: admission must refuse it.
	tampered, err := translate.Translate(mod, m, si, opt)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for i := range tampered.Code {
		in := &tampered.Code[i]
		if in.Op == target.And && in.Rd == m.SFIAddr && in.Rs2 == m.SFIMask {
			in.Op = target.Nop
			in.Rd, in.Rs1, in.Rs2 = target.NoReg, target.NoReg, target.NoReg
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no sandboxing mask found to strip")
	}
	err = c.Insert(mod, m, si, opt, tampered)
	if err == nil || !strings.Contains(err.Error(), "admission rejected") {
		t.Fatalf("tampered program admitted: %v", err)
	}
	if s := stats(c); s.CacheRejected == 0 {
		t.Errorf("rejection not counted: %+v", s)
	}
}
