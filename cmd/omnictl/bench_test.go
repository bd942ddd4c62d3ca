package main

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"omniware/internal/load"
)

// bench observes whatever ran inside its window: boot a server, run
// jobs while the window is open, and check the printed delta reflects
// them. The window is driven with real traffic via build/upload/exec.
func TestBenchSubcommand(t *testing.T) {
	addr := testServer(t)
	src := writeSrc(t, `int main(void){ return 0; }`)
	omw := filepath.Join(t.TempDir(), "prog.omw")
	if code, _, stderr := runCtl(t, "build", "-o", omw, src); code != 0 {
		t.Fatalf("build: %s", stderr)
	}
	code, stdout, stderr := runCtl(t, "upload", "-addr", addr, omw)
	if code != 0 {
		t.Fatalf("upload: %s", stderr)
	}
	var up struct{ Hash string }
	if err := json.Unmarshal([]byte(stdout), &up); err != nil {
		t.Fatal(err)
	}

	// Traffic happens before the window opens too; the delta must only
	// count what falls inside it, so run one job now...
	if code, _, stderr := runCtl(t, "exec", "-addr", addr, "-module", up.Hash, "-target", "mips"); code != 0 {
		t.Fatalf("exec: %s", stderr)
	}

	// ...then run two jobs inside a bench window, once bench has taken
	// its opening snapshot (its first stderr line follows it).
	var out strings.Builder
	errw := &signalWriter{opened: make(chan struct{})}
	done := make(chan int, 1)
	go func() { done <- run([]string{"bench", "-addr", addr, "-duration", "3s"}, &out, errw) }()
	select {
	case <-errw.opened:
	case code = <-done:
		t.Fatalf("bench exit %d before its window opened: %s", code, errw.String())
	}
	runCtl(t, "exec", "-addr", addr, "-module", up.Hash, "-target", "mips")
	runCtl(t, "exec", "-addr", addr, "-module", up.Hash, "-target", "x86")
	code = <-done
	stdout = out.String()
	if code != 0 {
		t.Fatalf("bench exit %d: %s", code, errw.String())
	}
	for _, want := range []string{"window 3s", "server", "stage run"} {
		if !strings.Contains(stdout, want) {
			t.Fatalf("bench output missing %q:\n%s", want, stdout)
		}
	}
	if !strings.Contains(stdout, "run=2 ") {
		t.Fatalf("window did not isolate the 2 in-window jobs:\n%s", stdout)
	}

	// -json emits the machine form: a load.ServerDelta.
	code, stdout, stderr = runCtl(t, "bench", "-addr", addr, "-duration", "1ms", "-json")
	if code != 0 {
		t.Fatalf("bench -json exit %d: %s", code, stderr)
	}
	var d load.ServerDelta
	if err := json.Unmarshal([]byte(stdout), &d); err != nil {
		t.Fatalf("bench -json output not a ServerDelta: %v\n%s", err, stdout)
	}
	if d.JobsRun != 0 {
		t.Fatalf("empty window counted %d jobs", d.JobsRun)
	}
}

// signalWriter collects output and closes opened on the first write.
type signalWriter struct {
	strings.Builder
	once   sync.Once
	opened chan struct{}
}

func (w *signalWriter) Write(p []byte) (int, error) {
	defer w.once.Do(func() { close(w.opened) })
	return w.Builder.Write(p)
}
