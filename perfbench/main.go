// Command perfbench is the repository's benchmark. It boots an
// in-process omniserved, runs one seeded workload against it for a
// fixed time, checks every job's output against an interpreter
// reference, and prints one JSON result line:
//
//	perfbench --workload spec-closed --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with
// --trace 1 the run is traced and the result holds the per-layer
// metrics. Earlier output lines carry the run's full record: the
// environment, the set-up samples, each latency's percentile and
// sample count, and the correctness counters. perfbench/README.md
// describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// traceDir is where traced runs write their spans, relative to the
// working directory (the checkout root).
const traceDir = ".bench_build/perfbench-traces"

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: spec-closed, triv-closed, cold-admit or mixed-open")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "length of the timed run")
	traced := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl := workloadByName(*name)
	if wl == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0 or 1\n", workloadNames())
		return 2
	}
	rec, err := measure(wl, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(rec); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := enc.Encode(rec.result()); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return ns
}

// measure performs one run: set-up, the timed loop, the correctness
// checks and, when traced, the per-layer replay.
func measure(wl *workload, seed int64, dur time.Duration, traced bool) (*record, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	st, setupS, err := timedSetUp(wl, seed, tr)
	if err != nil {
		return nil, err
	}
	defer st.srv.close()
	chk := newChecker(st.refs, len(machines))

	before, err := st.srv.counters()
	if err != nil {
		return nil, err
	}
	spans0 := tr.count()
	rs, err := drive(st, chk, dur, tr)
	if err != nil {
		return nil, err
	}
	spans := tr.count() - spans0
	after, err := st.srv.counters()
	if err != nil {
		return nil, err
	}

	rec := newRecord(wl, seed, dur, traced)
	rec.SetupS = setupS
	rec.summarize(st, chk, rs, after)
	if !traced {
		return rec, nil
	}
	tr.nextPhase()
	rep, err := replay(st, tr)
	if err != nil {
		return nil, err
	}
	rec.layers(st, rs, rep, tr.aggregate(), spans, before, after)
	if rep.mismatches > 0 {
		rec.Mismatches = append(rec.Mismatches, fmt.Sprintf("%d replayed runs disagreed with the reference", rep.mismatches))
		rec.Correct = false
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", wl.name, seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	rec.TraceFile = path
	return rec, nil
}
