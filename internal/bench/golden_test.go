package bench

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"omniware/internal/cc"
	"omniware/internal/core"
	"omniware/internal/native"
	"omniware/internal/target"
	"omniware/internal/translate"
)

var regenGolden = flag.Bool("regen-golden", false, "rewrite the checked-in golden simulator results")

const goldenFile = "testdata/golden_results.txt"

// goldenLine digests one simulated run: everything a Result carries
// plus a hash of the program's output, so any drift in the cost model,
// the executor or the category accounting changes the line.
func goldenLine(name, mach, config string, res target.Result, out string) string {
	counts := make([]string, len(res.Counts))
	for i, c := range res.Counts {
		counts[i] = fmt.Sprint(c)
	}
	return fmt.Sprintf("%s %s %s cycles=%d insts=%d counts=%s exit=%d out=%x faulted=%t fault=%q",
		name, mach, config, res.Cycles, res.Insts, strings.Join(counts, ","),
		res.ExitCode, sha256.Sum256([]byte(out)), res.Faulted, res.Fault)
}

// goldenRuns simulates every bench workload (scale 1) on every target
// as translated code with SFI on and off and as both native baselines.
func goldenRuns(t *testing.T) []byte {
	var buf bytes.Buffer
	for _, name := range WorkloadNames {
		files, err := Sources(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		opts := cc.Options{OptLevel: 2}
		mod, err := core.BuildC(files, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		funcs, err := core.BuildIRFuncs(files, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, mach := range target.Machines() {
			configs := []struct {
				name string
				run  func(h *core.Host) (target.Result, error)
			}{
				{"sfi", func(h *core.Host) (target.Result, error) {
					res, _, err := h.RunTranslated(mach, translate.Paper(true))
					return res, err
				}},
				{"nosfi", func(h *core.Host) (target.Result, error) {
					res, _, err := h.RunTranslated(mach, translate.Paper(false))
					return res, err
				}},
				{"cc", func(h *core.Host) (target.Result, error) { return h.RunNative(mach, native.ProfCC, funcs) }},
				{"gcc", func(h *core.Host) (target.Result, error) { return h.RunNative(mach, native.ProfGCC, funcs) }},
			}
			for _, c := range configs {
				h, err := core.NewHost(mod, core.RunConfig{})
				if err != nil {
					t.Fatal(err)
				}
				res, err := c.run(h)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", name, mach.Name, c.name, err)
				}
				fmt.Fprintln(&buf, goldenLine(name, mach.Name, c.name, res, h.Output()))
			}
		}
	}
	return buf.Bytes()
}

// TestGoldenResults pins the simulator's observable results on the
// bench workloads to a checked-in table. Simulated cycles are the
// paper's result, so any change to the executor or the pipeline cost
// models must leave every line identical; regenerate with
// -regen-golden only for a deliberate change to what is simulated.
func TestGoldenResults(t *testing.T) {
	got := goldenRuns(t)
	if *regenGolden {
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("golden table missing (err=%v); regenerate with -regen-golden", err)
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Errorf("golden table has %d lines, run produced %d", len(wl), len(gl))
	}
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Errorf("drift:\n got  %s\n want %s", gl[i], wl[i])
		}
	}
}
