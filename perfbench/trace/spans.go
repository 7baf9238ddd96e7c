package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one request share Req; Parent is the enclosing
// span's ID, or -1 for a request's root.
type Span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Req    int                `json:"req"`
	Name   string             `json:"name"`
	Start  time.Duration      `json:"start_ns"`
	End    time.Duration      `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

// Recorder keeps spans in memory until the run ends. A disabled
// recorder times nothing and keeps nothing: the untraced passes that
// measure the tracing overhead run the same code with one.
type Recorder struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

func newRecorder(on bool, t0 time.Time) *Recorder { return &Recorder{on: on, t0: t0} }

// Begin opens a span and returns its ID (-1 when disabled).
func (r *Recorder) Begin(name string, parent, req int) int {
	if !r.on {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Req: req, Name: name, Start: time.Since(r.t0)})
	return id
}

// Finish closes a span, attaching counts measured at its boundary.
func (r *Recorder) Finish(id int, counts map[string]float64) {
	if id < 0 {
		return
	}
	end := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = end
	r.spans[id].Counts = counts
}

// Layer is the aggregate of every span with one name.
type Layer struct {
	Total  time.Duration // sum of span durations
	Self   time.Duration // Total minus the time covered by child spans
	Counts map[string]float64
}

// Layers aggregates the spans by name. Self time subtracts each span's
// direct children, which the benchmark's spans nest without overlap.
func (r *Recorder) Layers() map[string]*Layer {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string]*Layer{}
	get := func(name string) *Layer {
		l := out[name]
		if l == nil {
			l = &Layer{Counts: map[string]float64{}}
			out[name] = l
		}
		return l
	}
	counts := map[string]map[string][]float64{}
	for _, s := range r.spans {
		d := s.End - s.Start
		l := get(s.Name)
		l.Total += d
		l.Self += d
		for k, v := range s.Counts {
			if counts[s.Name] == nil {
				counts[s.Name] = map[string][]float64{}
			}
			counts[s.Name][k] = append(counts[s.Name][k], v)
		}
		if s.Parent >= 0 {
			get(r.spans[s.Parent].Name).Self -= d
		}
	}
	// Sum counts in sorted order, so a total does not depend on the
	// order the requests ran in (float addition is not associative).
	for name, byKey := range counts {
		for k, vs := range byKey {
			sort.Float64s(vs)
			for _, v := range vs {
				out[name].Counts[k] += v
			}
		}
	}
	return out
}

// Write saves every span as JSON.
func (r *Recorder) Write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.Marshal(r.spans)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
