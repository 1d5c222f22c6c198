package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer of the program.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = none
	Op     int64  `json:"op"`     // operation id shared by the spans of one root or request
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pass nil and pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int, op int64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose interval was observed by other means (for
// example the timestamps a server reports for a job).
func (t *tracer) add(name string, parent int, op int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
}

// spanSummary aggregates the spans of one name.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// summarize returns per-name totals, where a span's self time is its
// duration minus the part of it that its children's intervals cover.
func (t *tracer) summarize() []spanSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	by := map[string]*spanSummary{}
	var names []string
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		sum := by[s.Name]
		if sum == nil {
			sum = &spanSummary{Name: s.Name}
			by[s.Name] = sum
			names = append(names, s.Name)
		}
		d := s.End - s.Start
		sum.Count++
		sum.TotalMS += float64(d) / 1e6
		sum.SelfMS += float64(d-covered(children[s.ID], s.Start, s.End)) / 1e6
	}
	sort.Strings(names)
	out := make([]spanSummary, len(names))
	for i, n := range names {
		out[i] = *by[n]
	}
	return out
}

// covered returns how much of [lo, hi] the union of ivs covers.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// write saves every span and the per-name summary under dir and prints the
// summary to log.
func (t *tracer) write(dir, workload string, seed int64, log io.Writer) error {
	sum := t.summarize()
	for _, s := range sum {
		fmt.Fprintf(log, "span %-34s n=%-6d total=%10.1fms self=%10.1fms\n", s.Name, s.Count, s.TotalMS, s.SelfMS)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(map[string]any{"workload": workload, "seed": seed, "summary": sum, "spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed)), b, 0o644)
}
