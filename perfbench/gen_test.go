package main

import (
	"testing"

	"omniware/internal/cc"
	"omniware/internal/core"
	"omniware/internal/wire"
)

func TestGenDeterministic(t *testing.T) {
	for i := 0; i < 8; i++ {
		p := poolParams(i, 8)
		if a, b := genProgram(int64(i), p), genProgram(int64(i), p); a != b {
			t.Fatalf("program %d differs between two generations with one seed", i)
		}
	}
	if genProgram(1, poolParams(7, 8)) == genProgram(2, poolParams(7, 8)) {
		t.Fatal("two seeds generated the same program")
	}
}

// TestGenCompilesAndTerminates builds a pool across the whole size
// range and runs every program on the interpreter under genStepCap.
func TestGenCompilesAndTerminates(t *testing.T) {
	const n = 12
	sizes := make([]int, n)
	for i := 0; i < n; i++ {
		src := genProgram(int64(100+i), poolParams(i, n))
		mod, err := core.BuildC([]core.SourceFile{{Name: "gen.c", Src: src}}, cc.Options{OptLevel: 2})
		if err != nil {
			t.Fatalf("program %d does not compile: %v\n%s", i, err, src)
		}
		blob, err := wire.EncodeModule(mod)
		if err != nil {
			t.Fatal(err)
		}
		sizes[i] = len(blob)
		h, err := core.NewHost(mod, core.RunConfig{MaxSteps: genStepCap})
		if err != nil {
			t.Fatal(err)
		}
		res, err := h.RunInterp()
		if err != nil || res.Faulted {
			t.Fatalf("program %d did not finish within %d steps: %v %s", i, genStepCap, err, res.Fault)
		}
		if h.Output() == "" {
			t.Fatalf("program %d printed nothing", i)
		}
		t.Logf("program %d: %d OMW bytes, %d steps", i, sizes[i], res.Steps)
	}
	if sizes[n-1] < 20_000 || sizes[n-1] > 40_000 {
		t.Errorf("largest program is %d OMW bytes; the range should end near li (~27 KB)", sizes[n-1])
	}
	if sizes[0] > 2_000 {
		t.Errorf("smallest program is %d OMW bytes; the range should start near the trivial module", sizes[0])
	}
}
