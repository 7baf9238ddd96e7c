package plan

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Digest is the part of a report the correctness gate compares between
// identical requests. It holds fields, not bytes: the report embeds host
// wall-clock time (overhead_cycles.sass), so its bytes differ between
// runs of the same request.
type Digest struct {
	Cycles   float64  // kernel_cycles (0 on a static-only report)
	Insts    float64  // metrics["smsp__inst_executed.sum"]
	Findings []string // detector and source lines, in report order
}

// Equal reports whether two digests agree exactly.
func (d Digest) Equal(o Digest) bool {
	if d.Cycles != o.Cycles || d.Insts != o.Insts || len(d.Findings) != len(o.Findings) {
		return false
	}
	for i := range d.Findings {
		if d.Findings[i] != o.Findings[i] {
			return false
		}
	}
	return true
}

type jsonReport struct {
	DryRun       bool               `json:"dry_run"`
	KernelCycles float64            `json:"kernel_cycles"`
	Metrics      map[string]float64 `json:"metrics"`
	Degradations []json.RawMessage  `json:"degradations"`
	Findings     []struct {
		Analysis string `json:"analysis"`
		Sites    []struct {
			Line int `json:"line"`
		} `json:"sites"`
	} `json:"findings"`
	// Present on a cross-arch comparison document.
	Base  *jsonReport `json:"base"`
	Other *jsonReport `json:"other"`
}

// DigestReport checks one report (or cross-arch comparison) and returns
// its digest. A report that is degraded, or that should carry the
// dynamic pillars but is static-only — the simulated kernel failed, or
// its device output failed verification — is an error.
func DigestReport(data []byte, wantDynamic bool) (Digest, error) {
	var r jsonReport
	if err := json.Unmarshal(data, &r); err != nil {
		return Digest{}, fmt.Errorf("decode report: %w", err)
	}
	if r.Base != nil || r.Other != nil {
		if r.Base == nil || r.Other == nil {
			return Digest{}, fmt.Errorf("cross-arch comparison lacks a side")
		}
		b, err := digest(r.Base, wantDynamic)
		if err != nil {
			return Digest{}, fmt.Errorf("base: %w", err)
		}
		o, err := digest(r.Other, wantDynamic)
		if err != nil {
			return Digest{}, fmt.Errorf("other: %w", err)
		}
		b.Cycles += o.Cycles
		b.Insts += o.Insts
		b.Findings = append(b.Findings, o.Findings...)
		return b, nil
	}
	return digest(&r, wantDynamic)
}

func digest(r *jsonReport, wantDynamic bool) (Digest, error) {
	if len(r.Degradations) > 0 {
		return Digest{}, fmt.Errorf("degraded report (%d ledger entries)", len(r.Degradations))
	}
	d := Digest{Cycles: r.KernelCycles, Insts: r.Metrics["smsp__inst_executed.sum"]}
	if wantDynamic && (r.DryRun || d.Cycles <= 0 || d.Insts <= 0) {
		return Digest{}, fmt.Errorf("report lacks the dynamic pillars (dry_run=%t, kernel_cycles=%g)", r.DryRun, d.Cycles)
	}
	for _, f := range r.Findings {
		lines := make([]string, len(f.Sites))
		for i, s := range f.Sites {
			lines[i] = fmt.Sprint(s.Line)
		}
		d.Findings = append(d.Findings, f.Analysis+"@"+strings.Join(lines, ","))
	}
	return d, nil
}

// Gate remembers the first digest of every request key and flags any
// later answer to the same key that differs from it.
type Gate struct {
	first      map[string]Digest
	Violations []string
}

// NewGate returns an empty gate.
func NewGate() *Gate { return &Gate{first: map[string]Digest{}} }

// Check records d for key, or compares it against the key's first
// digest. It returns false on a mismatch.
func (g *Gate) Check(key string, d Digest) bool {
	prev, ok := g.first[key]
	if !ok {
		g.first[key] = d
		return true
	}
	if !prev.Equal(d) {
		g.Fail(fmt.Sprintf("%s: answer differs from the first (cycles %g vs %g, insts %g vs %g, findings %v vs %v)",
			short(key), d.Cycles, prev.Cycles, d.Insts, prev.Insts, d.Findings, prev.Findings))
		return false
	}
	return true
}

// Fail records a violation that is not a mismatch (an error exit, a
// degraded report).
func (g *Gate) Fail(msg string) { g.Violations = append(g.Violations, msg) }

// Digests returns the first digest of every key, sorted by key.
func (g *Gate) Digests() []KeyDigest {
	out := make([]KeyDigest, 0, len(g.first))
	for k, d := range g.first {
		out = append(out, KeyDigest{short(k), d})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// KeyDigest pairs a request key with its digest.
type KeyDigest struct {
	Key string
	Digest
}

func short(key string) string {
	if len(key) > 120 {
		return key[:120] + "..."
	}
	return key
}
