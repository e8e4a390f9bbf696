package main

import (
	"encoding/json"
	"os"
	"time"
)

// now reads the wall clock. Every clock read of the benchmark goes
// through it, so the repository's determinism lint, which keeps the
// clock out of library code, has one justified exception here.
func now() time.Time {
	//lint:ignore detlint measuring wall-clock time is what a benchmark program is for
	return time.Now()
}

// span is one timed call into a layer. Spans of one request (or one
// paper-suite case) share Req; Parent is the index of the span that
// caused it, -1 for a root.
type span struct {
	Req    int64  `json:"req"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: begin and end do no work, not even a clock read.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: now()} }

func (t *tracer) begin(req int64, parent int, name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Req: req, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
}

// summary aggregates the spans: total duration per name, and the count,
// duration and self time of the spans named root (duration minus the
// time its children cover; children of one parent never overlap, the
// calls are serial).
func (t *tracer) summary(root string) (total map[string]int64, roots int, rootNS, rootSelfNS int64) {
	total = make(map[string]int64)
	childNS := make(map[int]int64)
	for _, s := range t.spans {
		d := s.End - s.Start
		total[s.Name] += d
		if s.Parent >= 0 {
			childNS[s.Parent] += d
		}
	}
	for i, s := range t.spans {
		if s.Name == root {
			roots++
			rootNS += s.End - s.Start
			rootSelfNS += s.End - s.Start - childNS[i]
		}
	}
	return total, roots, rootNS, rootSelfNS
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
