package plan

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// Metric is one named measurement with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the line the benchmark prints last.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Set records a metric.
func (r *Result) Set(name string, value float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]Metric{}
	}
	r.Metrics[name] = Metric{Value: value, Unit: unit}
}

// Emit prints every metric as a readable line to w, writes the full
// record (seed and notes included) to file, and prints the result line
// last.
func (r *Result) Emit(w io.Writer, file string, header map[string]any) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	record := map[string]any{"result": r}
	for k, v := range header {
		record[k] = v
	}
	data, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		return fmt.Errorf("encode result record: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
		return fmt.Errorf("write result record: %w", err)
	}
	if err := os.WriteFile(file, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write result record: %w", err)
	}
	fmt.Fprintf(w, "record: %s\n", file)
	line, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// Quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted; it is not modified).
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// Mean returns the arithmetic mean of xs (0 when empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Median is Quantile(xs, 0.5).
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }
