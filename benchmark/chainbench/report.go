package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics and its correctness tally. Every
// checked operation counts into attempted; a failed check counts into
// failed and keeps its message.
type report struct {
	mu        sync.Mutex
	names     []string
	metrics   map[string]metric
	attempted int
	failed    int
	failures  []string
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

// set records a metric; setting a name twice is a programming error.
func (r *report) set(name, unit string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.metrics[name]; dup {
		panic("chainbench: metric set twice: " + name)
	}
	r.names = append(r.names, name)
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// check tallies one verified operation.
func (r *report) check(ok bool, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if ok {
		return
	}
	r.failed++
	// The first few messages identify the fault; a broken run can fail
	// every one of thousands of receipts the same way.
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// bulk tallies n operations verified together, failed of which failed.
func (r *report) bulk(n, failed int, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted += n
	r.failed += failed
	if failed > 0 && len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// result is the contract's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// write prints every metric by name with its unit, the tally, and the
// result object as the last line. A non-finite value is reported as a
// failed operation: the driver must never read NaN as a measurement.
func (r *report) write(w io.Writer) error {
	for _, name := range r.names {
		m := r.metrics[name]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.check(false, "metric %s is not finite", name)
			m.Value = 0
			r.metrics[name] = m
		}
		fmt.Fprintf(w, "%-42s %16.4f %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "ops_attempted %d\nops_failed %d\n", r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
	line, err := json.Marshal(result{
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// span is one traced call: Name at a layer boundary, ID the block
// height (or round) every span of one block shares, Parent the span
// that caused it.
type span struct {
	Name    string `json:"name"`
	ID      uint64 `json:"id"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so the untraced run pays one nil check per call.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	paused bool
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(name, parent string, id uint64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if !t.paused {
		t.spans = append(t.spans, span{
			Name: name, ID: id, Parent: parent,
			StartNs: start.Sub(t.epoch).Nanoseconds(), EndNs: end.Sub(t.epoch).Nanoseconds(),
		})
	}
	t.mu.Unlock()
}

// pause stops (or resumes) recording: the traced run keeps one rep
// span-free to measure what tracing costs.
func (t *tracer) pause(on bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.paused = on
	t.mu.Unlock()
}

// selfTimes returns, per span name, each span's duration minus the
// durations of its children (spans naming it as parent under the same
// id), in seconds.
func (t *tracer) selfTimes() map[string][]float64 {
	type key struct {
		name string
		id   uint64
	}
	child := make(map[key]int64)
	for _, s := range t.spans {
		if s.Parent != "" {
			child[key{s.Parent, s.ID}] += s.EndNs - s.StartNs
		}
	}
	out := make(map[string][]float64)
	for _, s := range t.spans {
		self := s.EndNs - s.StartNs - child[key{s.Name, s.ID}]
		if self < 0 {
			self = 0
		}
		out[s.Name] = append(out[s.Name], float64(self)/1e9)
	}
	return out
}

// writeFile dumps the spans as JSON.
func (t *tracer) writeFile(path string) error {
	sort.SliceStable(t.spans, func(i, j int) bool { return t.spans[i].StartNs < t.spans[j].StartNs })
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
