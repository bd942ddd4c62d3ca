package mcache_test

import (
	"fmt"
	"strings"
	"testing"

	"omniware/internal/core"
	"omniware/internal/mcache"
	"omniware/internal/mcache/diskstore"
	"omniware/internal/sfi"
	"omniware/internal/sfi/absint"
	"omniware/internal/target"
	"omniware/internal/translate"
)

// The dual-gate contract: under VerifyBoth a program the two verifiers
// disagree on is never admitted — not from an insert, not from a
// translation, and not from the persistent tier. Disagreements are a
// distinct counter (they always mean a verifier bug) and disk entries
// that split the verdict are quarantined exactly like corrupt ones.

// disagreementProgram builds the known-difference shape: a diamond
// whose two arms each mask and rebase the sandbox register before
// falling into a store block that is a branch target. sfi.Check resets
// its facts at the leader and rejects; the abstract interpreter joins
// the two arm states and proves the store. It is the one admission
// where the verifiers legitimately split — exactly what VerifyBoth
// must refuse to serve.
func disagreementProgram(m *target.Machine, si translate.SegInfo) *target.Program {
	no := target.NoReg
	A := m.SFIAddr
	R := m.OmniInt[2]
	var code []target.Inst
	emit := func(in target.Inst) int32 {
		code = append(code, in)
		return int32(len(code) - 1)
	}
	pad := func() {
		if m.HasDelaySlot {
			emit(target.Inst{Op: target.Nop, Rd: no, Rs1: no, Rs2: no})
		}
	}
	loadConst := func(rd target.Reg, val uint32) {
		if rd == no {
			return
		}
		emit(target.Inst{Op: target.Lui, Rd: rd, Rs1: no, Rs2: no, Imm: int32(val >> 16)})
		if lo := val & 0xffff; lo != 0 {
			emit(target.Inst{Op: target.OrI, Rd: rd, Rs1: rd, Rs2: no, Imm: int32(lo)})
		}
	}
	const nOmni = 2
	loadConst(m.SFIMask, si.DataMask)
	loadConst(m.SFIBase, si.DataBase)
	loadConst(m.CodeMask, nOmni-1)
	loadConst(m.GP, si.GPValue)
	jEntry := emit(target.Inst{Op: target.J, Rd: no, Rs1: no, Rs2: no})
	pad()

	entry := int32(len(code))
	code[jEntry].Target = entry
	b := emit(target.Inst{Op: target.Beqz, Rd: no, Rs1: R, Rs2: no})
	pad()
	emit(target.Inst{Op: target.And, Rd: A, Rs1: R, Rs2: m.SFIMask})
	emit(target.Inst{Op: target.Or, Rd: A, Rs1: A, Rs2: m.SFIBase})
	j := emit(target.Inst{Op: target.J, Rd: no, Rs1: no, Rs2: no})
	pad()
	armB := int32(len(code))
	code[b].Target = armB
	emit(target.Inst{Op: target.And, Rd: A, Rs1: R, Rs2: m.SFIMask})
	emit(target.Inst{Op: target.Or, Rd: A, Rs1: A, Rs2: m.SFIBase})
	join := int32(len(code))
	code[j].Target = join
	emit(target.Inst{Op: target.Sw, Rd: R, Rs1: A, Rs2: no, Imm: 0})
	emit(target.Inst{Op: target.Halt, Rd: no, Rs1: no, Rs2: no})
	trap := emit(target.Inst{Op: target.Break, Rd: no, Rs1: no, Rs2: no})
	return &target.Program{
		Arch:         m.Arch,
		Code:         code,
		Entry:        0,
		OmniToNative: []int32{trap, trap},
	}
}

// Every verify mode must admit genuine translator output: the dual
// gate is free hardening on the happy path, not a new failure mode.
func TestVerifyModesAdmitTranslatorOutput(t *testing.T) {
	mod := buildMod(t, prog1)
	m := target.MIPSMachine()
	si := core.SegInfoFor(mod, core.RunConfig{})
	opt := translate.Paper(true)
	for _, mode := range []mcache.VerifyMode{mcache.VerifyCheck, mcache.VerifyAbsint, mcache.VerifyBoth} {
		t.Run(mode.String(), func(t *testing.T) {
			c := mcache.NewWith(mcache.Config{Verify: mode})
			if _, _, err := c.Translate(mod, m, si, opt); err != nil {
				t.Fatalf("mode %s rejected genuine translator output: %v", mode, err)
			}
			if s := stats(c); s.CacheRejected != 0 || s.CacheDisagreements != 0 || s.CacheEntries != 1 {
				t.Errorf("mode %s stats %+v", mode, s)
			}
		})
	}
}

// A program the verifiers split on is rejected by the memory tier and
// counted as a disagreement; a single-verifier cache would have served
// it (absint accepts the diamond), which is exactly the exposure the
// dual gate removes.
func TestVerifierDisagreementRejectedFromMemory(t *testing.T) {
	mod := buildMod(t, prog1)
	m := target.MIPSMachine()
	si := core.SegInfoFor(mod, core.RunConfig{})
	opt := translate.Paper(true)
	prog := disagreementProgram(m, si)

	// Precondition: the shape really does split the verdict.
	if err := sfi.Check(prog, m, si); err == nil {
		t.Fatal("sfi.Check accepted the diamond; the fixture no longer disagrees")
	}
	if err := absint.Check(prog, m, si); err != nil {
		t.Fatalf("absint rejected the diamond (%v); the fixture no longer disagrees", err)
	}

	c := mcache.NewWith(mcache.Config{Verify: mcache.VerifyBoth, Logf: func(string, ...any) {}})
	err := c.Insert(mod, m, si, opt, prog)
	if err == nil {
		t.Fatal("dual gate admitted a program the verifiers disagree on")
	}
	if !strings.Contains(err.Error(), "disagreement") {
		t.Errorf("rejection does not name the disagreement: %v", err)
	}
	s := stats(c)
	if s.CacheDisagreements != 1 || s.CacheRejected != 1 || s.CacheEntries != 0 {
		t.Errorf("stats %+v, want 1 disagreement, 1 rejection, 0 entries", s)
	}

	// The key is not poisoned: a later lookup translates fresh and is
	// served the genuine program, never the rejected one.
	got, served, err := c.Translate(mod, m, si, opt)
	if err != nil || served {
		t.Fatalf("lookup after rejection: served=%v err=%v", served, err)
	}
	if got == prog {
		t.Fatal("cache served the rejected program")
	}
	// Under VerifyAbsint alone the same program is admitted — the
	// disagreement counter is specific to the dual gate.
	ca := mcache.NewWith(mcache.Config{Verify: mcache.VerifyAbsint})
	if err := ca.Insert(mod, m, si, opt, prog); err != nil {
		t.Fatalf("absint-only gate rejected what absint accepts: %v", err)
	}
}

// A disk entry the verifiers split on is quarantined like a corrupt
// one: logged, counted, never served, and the lookup falls back to a
// fresh (verified) translation.
func TestVerifierDisagreementOnDiskQuarantined(t *testing.T) {
	dir := t.TempDir()
	store, err := diskstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mod := buildMod(t, prog1)
	m := target.MIPSMachine()
	si := core.SegInfoFor(mod, core.RunConfig{})
	opt := translate.Paper(true)
	k := mcache.Key(mod, m, si, opt)
	if err := store.Put(k, disagreementProgram(m, si)); err != nil {
		t.Fatal(err)
	}

	var logged []string
	c := mcache.NewWith(mcache.Config{
		Disk:   store,
		Verify: mcache.VerifyBoth,
		Logf: func(format string, args ...any) {
			logged = append(logged, fmt.Sprintf(format, args...))
		},
	})
	got, served, err := c.Translate(mod, m, si, opt)
	if err != nil {
		t.Fatalf("lookup over a poisoned disk entry must degrade to a miss, got %v", err)
	}
	if served {
		t.Fatal("poisoned disk entry reported as served")
	}
	if got == nil {
		t.Fatal("no program returned")
	}
	s := stats(c)
	if s.CacheDiskQuarantines != 1 || s.CacheDisagreements != 1 || s.CacheDiskHits != 0 {
		t.Errorf("stats %+v, want 1 quarantine, 1 disagreement, 0 disk hits", s)
	}
	found := false
	for _, l := range logged {
		if strings.Contains(l, "disagreement") {
			found = true
		}
	}
	if !found {
		t.Errorf("quarantine log does not name the disagreement: %q", logged)
	}
	// The entry is gone from the store, replaced by the write-through
	// of the fresh translation under the same key.
	if _, err := store.Get(k); err != nil {
		t.Errorf("write-through after quarantine did not repopulate the key: %v", err)
	}
}
