package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// The benchmark's own tracer. Spans are recorded around the calls the
// benchmark makes into each layer's public functions, kept in memory,
// and written out when the run ends. A nil *tracer records nothing:
// the untraced run passes nil everywhere.

// maxSpans bounds the spans one phase of a run keeps (set-up and the
// timed loop, then the replay); later spans are counted, not kept.
// The fast closed loops produce this many within seconds, and the
// per-layer figures need far fewer.
const maxSpans = 100_000

// span is one timed call. Times are nanoseconds since the tracer
// started; Parent is the index of the enclosing span or -1; Work is
// the units of work the call did (bytes, steps or instructions), where
// a metric is a rate.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
	Work   uint64 `json:"work,omitempty"`
}

type tracer struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	limit   int // len(spans) may not pass it
	dropped int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), limit: maxSpans} }

// nextPhase lets the tracer keep maxSpans more spans.
func (t *tracer) nextPhase() {
	t.mu.Lock()
	t.limit = len(t.spans) + maxSpans
	t.mu.Unlock()
}

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// add records a finished span and returns its index (-1 when nothing
// is recorded).
func (t *tracer) add(s span) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= t.limit {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, s)
	return int32(len(t.spans) - 1)
}

// begin opens a span.
func (t *tracer) begin(name string, parent int32, req int64) int32 {
	return t.add(span{Name: name, Start: t.now(), End: -1, Parent: parent, Req: req})
}

// end closes span id and returns its end time.
func (t *tracer) end(id int32, work uint64) int64 {
	if t == nil || id < 0 {
		return 0
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id].End = now
	t.spans[id].Work = work
	t.mu.Unlock()
	return now
}

// count is the number of spans recorded or dropped so far.
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans) + t.dropped
}

// stat is the aggregate of every span of one name.
type stat struct {
	dur, self []float64 // nanoseconds
	work      uint64
	total     float64 // nanoseconds
}

// aggregate groups the spans by name. A span's self time is its
// duration minus the part of it its children cover.
func (t *tracer) aggregate() map[string]*stat {
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent < 0 || s.End < 0 {
			continue
		}
		p := t.spans[s.Parent]
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			covered[s.Parent] += hi - lo
		}
	}
	out := map[string]*stat{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		st := out[s.Name]
		if st == nil {
			st = &stat{}
			out[s.Name] = st
		}
		d := float64(s.End - s.Start)
		st.dur = append(st.dur, d)
		st.self = append(st.self, max(0, d-float64(covered[i])))
		st.work += s.Work
		st.total += d
	}
	return out
}

// write stores the spans as JSON lines, after one header line with
// the span count and the number dropped past maxSpans.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	err = enc.Encode(map[string]int{"spans": len(t.spans), "dropped": t.dropped})
	for i := 0; err == nil && i < len(t.spans); i++ {
		err = enc.Encode(t.spans[i])
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing trace %s: %w", path, err)
	}
	return nil
}
