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
	"omniware/internal/seg"
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
	edgeRuns(t, &buf)
	return buf.Bytes()
}

// edgeCases are small programs that leave the simulator's straight-line
// fast path: exceptions raised by a store the host has write-protected
// (arr's second page, when the program has an arr), handled and not,
// in plain code and in a delay slot; a jump through a code pointer no
// code address maps to; and a loop whose output depends on _clock(),
// which reads the cycle count mid-run. The rest reach opcodes the bench
// workloads barely touch: signed narrow loads, single-precision FP,
// register shift amounts of 32 and more, division by zero, and stores
// faulting from a delay slot.
var edgeCases = []struct {
	name, config string
	opt          translate.Options
	optLevel     int
	src          string
}{
	{"prot-handled", "sched", translate.Options{Schedule: true}, 1, `
void on_fault(void) { _exit(55); }
char arr[8192];
int main(void) {
	_set_handler((int)on_fault);
	arr[4096] = 1;
	return 1;
}`},
	{"prot-unhandled", "plain", translate.Options{}, 1, `
char arr[8192];
int main(void) {
	arr[4096] = 1;
	return 1;
}`},
	// With scheduling on, the store fills the loop branch's delay slot
	// on MIPS and SPARC.
	{"slot-unhandled", "nosfi", translate.Paper(false), 2, `
char arr[8192];
int main(void) {
	int k = 0;
	while (k < 100) { k++; arr[4096] = 1; }
	return k;
}`},
	{"slot-handled", "nosfi", translate.Paper(false), 2, `
char arr[8192];
int k;
void on_fault(void) { _print_int(k); _exit(56); }
int main(void) {
	_set_handler((int)on_fault);
	while (k < 100) { k++; arr[4096] = 1; }
	return k;
}`},
	{"badjump-unhandled", "nosfi", translate.Paper(false), 2, `
int main(void) {
	void (*f)(void);
	f = (void (*)(void))0x40000000;
	f();
	return 1;
}`},
	{"badjump-handled", "nosfi", translate.Paper(false), 2, `
void on_fault(void) { _exit(57); }
int main(void) {
	void (*f)(void);
	_set_handler((int)on_fault);
	f = (void (*)(void))0x40000000;
	f();
	return 1;
}`},
	// Signed byte and halfword loads (Lb, Lh) beside their unsigned
	// forms, over values with the sign bit set.
	{"sext", "sfi", translate.Paper(true), 2, `
char cb[8];
short hb[8];
unsigned char ub[8];
unsigned short uh[8];
int main(void) {
	int i, s = 0;
	for (i = 0; i < 8; i++) {
		cb[i] = i * 37 - 128;
		hb[i] = i * 9001 - 32768;
		ub[i] = i * 37 + 100;
		uh[i] = i * 9001 + 1000;
	}
	for (i = 0; i < 8; i++) {
		s = s * 3 + cb[i];
		s = s * 5 + hb[i];
		s = s * 7 + ub[i];
		s = s * 11 + uh[i];
		_print_int(cb[i]);
		_print_int(hb[i]);
	}
	_print_int(s);
	return s & 127;
}`},
	// Single-precision arithmetic, negation and conversions, with a NaN
	// and values outside int's range truncated (NaN to 0, the rest
	// clamped).
	{"float", "sfi", translate.Paper(true), 2, `
float fa[8];
float fz;
double da[4];
int main(void) {
	int i, n = 0;
	float x, y;
	for (i = 0; i < 8; i++)
		fa[i] = (float)(i * 3 + 1) / 4.0f;
	for (i = 0; i < 7; i++) {
		x = fa[i];
		y = fa[i + 1];
		n = n * 7 + (int)((x + y) * 1000.0f);
		n = n * 7 + (int)((x - y) * 1000.0f);
		n = n * 7 + (int)((x * y) * 1000.0f);
		n = n * 7 + (int)((x / y) * 1000.0f);
		n = n * 7 + (int)(-x * 100.0f);
	}
	x = fz / fz;
	_print_int((int)x);
	x = fa[7] * 1.0e20f;
	_print_int((int)x);
	_print_int((int)-x);
	da[0] = fa[3];
	da[1] = da[0] * 1.0e12;
	_print_int((int)da[1]);
	fa[0] = (float)da[1];
	_print_int((int)(fa[0] / 1.0e9f));
	fa[1] = (float)n;
	_print_int((int)fa[1]);
	_print_int(n);
	return n & 127;
}`},
	// Shifts by a register amount, including amounts of 32 and more
	// (the OmniVM masks the amount to five bits).
	{"shift", "sfi", translate.Paper(true), 2, `
int amt[16];
int main(void) {
	unsigned u = 0x80000001, s = 0;
	int v = -8, i;
	for (i = 0; i < 16; i++)
		amt[i] = i * 5;
	for (i = 0; i < 16; i++) {
		s = s * 31 + (u << amt[i]);
		s = s * 31 + (u >> amt[i]);
		s = s * 31 + (unsigned)(v >> amt[i]);
	}
	_print_uint(s);
	return s & 127;
}`},
	// Division and remainder by zero, signed and unsigned, with and
	// without a handler.
	{"div-unhandled", "sfi", translate.Paper(true), 2, `
int d;
int main(void) {
	int n = 100, i;
	for (i = 0; i < 4; i++)
		n = n / (d + 3 - i) + 7;
	return n;
}`},
	{"div-handled", "sfi", translate.Paper(true), 2, `
unsigned d;
void on_fault(void) { _exit(58); }
int main(void) {
	unsigned n = 100;
	int i;
	_set_handler((int)on_fault);
	for (i = 0; i < 4; i++)
		n = n / (d + 3 - i) + 7;
	return n;
}`},
	{"rem-unhandled", "sfi", translate.Paper(true), 2, `
unsigned d;
int main(void) {
	unsigned n = 100;
	int i;
	for (i = 0; i < 4; i++)
		n = n % (d + 3 - i) + 7;
	return n;
}`},
	{"rem-handled", "sfi", translate.Paper(true), 2, `
int d;
void on_fault(void) { _exit(59); }
int main(void) {
	int n = 100, i;
	_set_handler((int)on_fault);
	for (i = 0; i < 4; i++)
		n = n % (d + 3 - i) + 7;
	return n;
}`},
	// Stores that fault as unmapped and as unaligned from the loop
	// branch's delay slot on MIPS and SPARC (slot-* above fault on a
	// protected page).
	{"slot-unmapped", "nosfi", translate.Paper(false), 2, `
int main(void) {
	int k = 0;
	while (k < 100) { k++; *(int *)0x70000000 = k; }
	return k;
}`},
	{"slot-unaligned", "nosfi", translate.Paper(false), 2, `
char arr[64];
void on_fault(void) { _exit(60); }
int main(void) {
	int k = 0;
	_set_handler((int)on_fault);
	while (k < 100) { k++; *(int *)(arr + 2) = k; }
	return k;
}`},
	{"clock", "sfi", translate.Paper(true), 2, `
int main(void) {
	unsigned s = 0;
	int i;
	for (i = 0; i < 1000; i++) {
		s += i * 7;
		if ((i & 63) == 0)
			s ^= _clock();
	}
	_print_uint(s);
	return s & 127;
}`},
}

// edgeRuns appends the golden lines of edgeCases on every target.
func edgeRuns(t *testing.T, buf *bytes.Buffer) {
	for _, c := range edgeCases {
		mod, err := core.BuildC([]core.SourceFile{{Name: c.name + ".c", Src: c.src}}, cc.Options{OptLevel: c.optLevel})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, mach := range target.Machines() {
			h, err := core.NewHost(mod, core.RunConfig{})
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range mod.Symbols {
				if s.Name == "arr" {
					page := (s.Value + 4096) &^ (seg.PageSize - 1)
					if err := h.Mem.Protect(page, seg.PageSize, seg.Read); err != nil {
						t.Fatal(err)
					}
				}
			}
			res, _, err := h.RunTranslated(mach, c.opt)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.name, mach.Name, err)
			}
			fmt.Fprintln(buf, goldenLine(c.name, mach.Name, c.config, res, h.Output()))
		}
	}
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
