package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
)

// Span tracing from outside the program: the benchmark wraps its own
// calls into each layer's exported functions. Spans are sampled (one
// iteration in spanSampleEvery), kept in memory, and written out once at
// exit; counters (frames handled by the call) are taken at the same
// boundaries so per-frame ratios come from where the work happened.

// spanSampleEvery is the span sampling period, in traced iterations.
const spanSampleEvery = 64

// span is one timed call into a layer.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a root span
	Name   string `json:"name"`   // "<layer>.<call>", layer = package name
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Frames int32  `json:"frames"` // frames the call handled
}

// tracer owns the spans of one traced pass. A nil *tracer is valid and
// records nothing, so the untraced pass runs the same code.
type tracer struct {
	now      clock
	workload string

	mu   sync.Mutex
	bufs []*spanBuf
}

func newTracer(workload string, now clock) *tracer {
	return &tracer{now: now, workload: workload}
}

// spanBuf is one goroutine's span log; it is not safe for concurrent
// use. IDs are unique per buffer and made globally unique at export.
type spanBuf struct {
	t      *tracer
	thread string
	spans  []span
	iter   uint64
	on     bool // current iteration is sampled
}

// thread registers a per-goroutine span log.
func (t *tracer) thread(name string) *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{t: t, thread: name, spans: make([]span, 0, 4096)}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// sample starts a new traced iteration and reports whether it is one of
// the sampled ones; begin/end are no-ops until the next sampled one.
func (b *spanBuf) sample() bool {
	if b == nil {
		return false
	}
	b.on = b.iter%spanSampleEvery == 0
	b.iter++
	return b.on
}

// always forces the next spans to be recorded regardless of sampling
// (control-plane calls are rare enough to keep every one).
func (b *spanBuf) always() {
	if b != nil {
		b.on = true
	}
}

// begin opens a span under parent (-1 for none) and returns its id, or
// -1 when the iteration is not sampled.
func (b *spanBuf) begin(name string, parent int32) int32 {
	if b == nil || !b.on {
		return -1
	}
	id := int32(len(b.spans))
	b.spans = append(b.spans, span{ID: id, Parent: parent, Name: name, Start: b.t.now()})
	return id
}

// end closes a span, recording how many frames the call handled.
func (b *spanBuf) end(id int32, frames int) {
	if id < 0 {
		return
	}
	b.spans[id].End = b.t.now()
	b.spans[id].Frames = int32(frames)
}

// spanSummary aggregates the spans of one name.
type spanSummary struct {
	Name   string  `json:"name"`
	Calls  int     `json:"calls"`
	Frames int64   `json:"frames"`
	TotalN int64   `json:"total_ns"`
	SelfNs int64   `json:"self_ns"` // total minus the part covered by child spans
	PerFr  float64 `json:"self_ns_per_frame"`
}

// spanFile is the on-disk form of a traced pass.
type spanFile struct {
	Workload    string        `json:"workload"`
	SampleEvery int           `json:"sample_every"`
	Summary     []spanSummary `json:"summary"`
	Threads     []spanThread  `json:"threads"`
}

type spanThread struct {
	Thread string `json:"thread"`
	Spans  []span `json:"spans"`
}

// export merges the per-goroutine logs and computes self times.
func (t *tracer) export() spanFile {
	f := spanFile{SampleEvery: spanSampleEvery}
	if t == nil {
		return f
	}
	f.Workload = t.workload
	t.mu.Lock()
	defer t.mu.Unlock()
	agg := map[string]*spanSummary{}
	base := int32(0)
	for _, b := range t.bufs {
		child := make([]int64, len(b.spans)) // time covered by direct children
		for _, s := range b.spans {
			if s.Parent >= 0 && s.End >= s.Start {
				child[s.Parent] += s.End - s.Start
			}
		}
		out := make([]span, 0, len(b.spans))
		for i, s := range b.spans {
			if s.End < s.Start {
				continue // never closed (pass ended mid-call)
			}
			a := agg[s.Name]
			if a == nil {
				a = &spanSummary{Name: s.Name}
				agg[s.Name] = a
			}
			d := s.End - s.Start
			a.Calls++
			a.Frames += int64(s.Frames)
			a.TotalN += d
			a.SelfNs += d - child[i]
			s.ID += base
			if s.Parent >= 0 {
				s.Parent += base
			}
			out = append(out, s)
		}
		base += int32(len(b.spans))
		f.Threads = append(f.Threads, spanThread{Thread: b.thread, Spans: out})
	}
	for _, a := range agg {
		if a.Frames > 0 {
			a.PerFr = float64(a.SelfNs) / float64(a.Frames)
		}
		f.Summary = append(f.Summary, *a)
	}
	sort.Slice(f.Summary, func(i, j int) bool { return f.Summary[i].Name < f.Summary[j].Name })
	return f
}

// writeSpans writes the traced pass to path.
func writeSpans(path string, f spanFile) error {
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
