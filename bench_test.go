// Benchmarks regenerating the paper's tables and figures. Each
// benchmark drives the full pipeline (compile -> link -> translate or
// native-compile -> simulate) for the configurations its table needs
// and reports the headline ratios as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the evaluation. The suite is built once and measurements
// are memoized inside an iteration, so ns/op reflects the cost of one
// full regeneration.
package omniware_test

import (
	"io"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"omniware/internal/bench"
	"omniware/internal/core"
	"omniware/internal/target"
	"omniware/internal/translate"
)

var (
	suiteOnce sync.Once
	suite     *bench.Suite
	suiteErr  error
)

// benchScale is kept small so the full table set regenerates in
// minutes; cmd/omnibench -scale 0 runs the built-in full sizes.
const benchScale = 1

func getSuite(b *testing.B) *bench.Suite {
	suiteOnce.Do(func() {
		suite, suiteErr = bench.NewSuite(benchScale)
	})
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return suite
}

// reportAverages parses the table's "average" row (or last row) and
// reports each column as a metric.
func reportAverages(b *testing.B, t *bench.Table) {
	if len(t.Rows) == 0 {
		return
	}
	row := t.Rows[len(t.Rows)-1]
	for i := 1; i < len(row) && i < len(t.Header); i++ {
		if v, err := strconv.ParseFloat(row[i], 64); err == nil {
			unit := strings.ReplaceAll(t.Header[i], " ", "-") + "-ratio"
			b.ReportMetric(v, unit)
		}
	}
}

func benchTable(b *testing.B, f func(*bench.Suite) (*bench.Table, error)) {
	s := getSuite(b)
	var tbl *bench.Table
	var err error
	for i := 0; i < b.N; i++ {
		tbl, err = f(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportAverages(b, tbl)
	b.Log("\n" + tbl.String())
}

func BenchmarkTable1(b *testing.B) {
	benchTable(b, func(s *bench.Suite) (*bench.Table, error) { return s.Table1() })
}

func BenchmarkTable2(b *testing.B) {
	benchTable(b, func(s *bench.Suite) (*bench.Table, error) { return s.Table2() })
}

func BenchmarkTable3(b *testing.B) {
	benchTable(b, func(s *bench.Suite) (*bench.Table, error) { return s.Table3() })
}

func BenchmarkTable4(b *testing.B) {
	benchTable(b, func(s *bench.Suite) (*bench.Table, error) { return s.Table4() })
}

func BenchmarkTable5(b *testing.B) {
	benchTable(b, func(s *bench.Suite) (*bench.Table, error) { return s.Table5() })
}

func BenchmarkTable6(b *testing.B) {
	benchTable(b, func(s *bench.Suite) (*bench.Table, error) { return s.Table6() })
}

func BenchmarkFigure1(b *testing.B) {
	benchTable(b, func(s *bench.Suite) (*bench.Table, error) { return s.Figure1() })
}

func BenchmarkInterpVsTranslated(b *testing.B) {
	benchTable(b, func(s *bench.Suite) (*bench.Table, error) { return s.InterpTable() })
}

func BenchmarkSFIHoisting(b *testing.B) {
	benchTable(b, func(s *bench.Suite) (*bench.Table, error) { return s.SFIHoistTable() })
}

func BenchmarkReadProtection(b *testing.B) {
	benchTable(b, func(s *bench.Suite) (*bench.Table, error) { return s.ReadSFITable() })
}

// BenchmarkSimulate times the target simulator alone: each workload is
// translated once (the serving configuration, SFI on) and every
// iteration runs it in a fresh pooled host, with only RunProgram
// inside the timer. It reports simulator throughput and the simulated
// cycle count, which must not move when the simulator gets faster.
func BenchmarkSimulate(b *testing.B) {
	s := getSuite(b)
	for _, w := range s.Workload {
		for _, mach := range target.Machines() {
			b.Run(w.Name+"/"+mach.Name, func(b *testing.B) {
				cfg := core.RunConfig{Out: io.Discard}
				prog, err := translate.Translate(w.Mod, mach, core.SegInfoFor(w.Mod, cfg), translate.Paper(true))
				if err != nil {
					b.Fatal(err)
				}
				var insts, cycles uint64
				var elapsed time.Duration
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					h, err := core.AcquireHost(w.Mod, cfg)
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					start := time.Now()
					res, err := h.RunProgram(mach, prog)
					elapsed += time.Since(start)
					b.StopTimer()
					h.Release()
					if err != nil || res.ExitCode != w.RefExit {
						b.Fatalf("run: exit %d, err %v", res.ExitCode, err)
					}
					insts += res.Insts
					cycles = res.Cycles
					b.StartTimer()
				}
				b.ReportMetric(float64(insts)/elapsed.Seconds()/1e6, "Minst/s")
				b.ReportMetric(float64(elapsed.Nanoseconds())/float64(insts), "ns/inst")
				b.ReportMetric(float64(cycles), "cycles")
			})
		}
	}
}
