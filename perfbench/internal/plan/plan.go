// Package plan defines the benchmark's three workloads: which requests
// each one sends, in which order and at which times, all derived from
// the run's seed. Both the end-to-end harness and the traced run build
// their request sequences here, so they replay the same inputs.
//
// The package uses the standard library only: the end-to-end harness
// must keep building when the program's own packages change shape.
package plan

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Workload names, as given to --workload.
const (
	ReportFull = "report_full"
	MSHRBound  = "mshr_bound"
	DaemonZipf = "daemon_zipf"
)

// Workloads lists every workload in the order BENCHMARK.json names them.
var Workloads = []string{ReportFull, MSHRBound, DaemonZipf}

// CLIMix is the kernel mix of a closed-loop CLI workload: each request
// analyzes one kernel, and one cycle visits every kernel once in a
// seeded order.
type CLIMix struct {
	Kernels []string
	Scale   int    // 0 = each kernel's default scale
	Arch    string // -arch value
	Full    bool   // -verify -sensitivity -slice on top of the analysis
	// LimitMS is the latency limit a request must meet to count toward
	// goodput_share: several times the slowest kernel's report at this
	// commit, so it flags hangs and pathological slow-downs, not noise.
	LimitMS float64
}

// ReportFullMix: full reports, where the advisor's verify and sweep
// re-simulations dominate and MSHR admission barely shows.
var ReportFullMix = CLIMix{
	Kernels: []string{
		"sgemm_naive", "sgemm_shared", "jacobi_naive", "jacobi_texture",
		"spill_pressure", "histogram_global", "reduction_atomic", "transpose_naive",
	},
	Arch:    "sm_70",
	Full:    true,
	LimitMS: 10000,
}

// MSHRBoundMix: the six mixbench kernels at the golden scale of 8
// compute iterations, analysis only. Pinned to sm_70, where queue/MSHR
// admission is nearly all of the host time; sm_80 runs the same
// kernels about fifteen times faster.
var MSHRBoundMix = CLIMix{
	Kernels: []string{
		"mixbench_sp_naive", "mixbench_sp_vec4", "mixbench_dp_naive",
		"mixbench_dp_vec4", "mixbench_int_naive", "mixbench_int_vec4",
	},
	Scale:   8,
	Arch:    "sm_70",
	LimitMS: 10000,
}

// Mix returns the CLI mix of a closed-loop workload.
func Mix(workload string) (CLIMix, bool) {
	switch workload {
	case ReportFull:
		return ReportFullMix, true
	case MSHRBound:
		return MSHRBoundMix, true
	}
	return CLIMix{}, false
}

// Args returns the gpuscout command line that analyzes kernel under the
// mix, writing the JSON report to jsonOut.
func (m CLIMix) Args(kernel, jsonOut string) []string {
	args := []string{"-workload", kernel, "-arch", m.Arch}
	if m.Scale > 0 {
		args = append(args, "-scale", fmt.Sprint(m.Scale))
	}
	if m.Full {
		args = append(args, "-verify", "-sensitivity", "-slice")
	}
	return append(args, "-json", jsonOut)
}

// DryRunArgs returns the set-up command line for kernel: static
// analysis only, which covers process start, codegen and the static
// pillar.
func (m CLIMix) DryRunArgs(kernel string) []string {
	args := []string{"-workload", kernel, "-arch", m.Arch, "-dry-run"}
	if m.Scale > 0 {
		args = append(args, "-scale", fmt.Sprint(m.Scale))
	}
	return args
}

// Cycle returns the kernels of cycle c in the order the seed gives.
func (m CLIMix) Cycle(seed int64, c int) []string {
	r := rand.New(rand.NewSource(seed*1_000_003 + int64(c)))
	out := make([]string, len(m.Kernels))
	for i, j := range r.Perm(len(m.Kernels)) {
		out[i] = m.Kernels[j]
	}
	return out
}

// Open-loop parameters of daemon_zipf.
const (
	// DaemonRate is the fixed Poisson arrival rate: a quarter of the
	// saturation rate measured at the baseline commit on its 2-core host
	// (about 800 req/s). At half of it the daemon has too little headroom
	// against a contended host, and the latency tail swings with it.
	DaemonRate = 200.0
	// DaemonClients bounds the load generator's concurrent connections
	// (nproc of the baseline host). A due request waits for a free
	// connection; its latency still counts from its due time.
	DaemonClients = 2
	// DaemonLimitMS is the latency limit of goodput_share, fixed at
	// about fifteen times the baseline's p99 after the ramp (15–20 ms).
	DaemonLimitMS = 250.0
	// ZipfS is the skew of the key popularity distribution. No trace of
	// gpuscoutd traffic exists, so it is an assumption: 0.8 lies in the
	// range 0.64–0.83 Breslau et al. measured on web proxy request
	// streams ("Web Caching and Zipf-like Distributions: Evidence and
	// Implications", INFOCOM 1999). It sets how hits split between the
	// memory and the disk tier far more than the hit ratio; README.md
	// gives the mix from 0.6 to 1.2.
	ZipfS = 0.8
	// RampSeconds is how long the arrival rate takes to reach
	// DaemonRate. Caches start empty, so early arrivals are mostly
	// misses; at full rate from the first instant they would pile into a
	// start-up queue whose depth, not the daemon's steady behaviour,
	// would set the tail.
	RampSeconds = 5.0
	// UploadShare and BatchShare are the shares of arrivals that upload
	// SASS or cubin fixtures, and that post a batch of BatchItems keys.
	UploadShare = 0.10
	BatchShare  = 0.02
	BatchItems  = 4
)

// UploadKernels and UploadArches name the upload fixtures: each kernel
// at its default scale, lowered for each arch, stored as SASS text and
// as a cubin. The generator in ../gen writes them.
var (
	UploadKernels = []string{
		"transpose_naive", "transpose_shared", "jacobi_naive", "jacobi_shared",
		"sgemm_naive", "sgemm_shared", "histogram_global", "mixbench_sp_naive",
	}
	UploadArches = []string{"sm_70", "sm_80"}
)

// UploadName is the fixture file stem of one kernel and arch.
func UploadName(kernel, arch string) string { return kernel + "." + arch }

// zipfScales lists the problem scales the key universe draws from, per
// workload. Every mixbench kernel is left out: its misses belong to
// mshr_bound. Scales are small enough that a miss costs tens of
// milliseconds, so a cold key does not hold a connection for seconds.
var zipfScales = []struct {
	workloads []string
	scales    []int
}{
	{[]string{"sgemm_naive", "sgemm_restrict", "sgemm_shared", "sgemm_shared_vec"}, []int{64}},
	{[]string{"jacobi_naive", "jacobi_texture", "jacobi_restrict", "jacobi_shared"}, []int{16, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192, 224, 256}},
	{[]string{"transpose_naive", "transpose_shared", "transpose_padded"}, []int{32, 64, 96, 128, 160, 192, 224, 256, 288, 320}},
	{[]string{"histogram_global", "histogram_shared"}, []int{1, 2, 3}},
	{[]string{"spill_relief"}, []int{2, 4, 6, 8, 10, 12}},
	{[]string{"reduction_atomic", "reduction_shfl"}, []int{0}},
}

// archCompareKeys are the cross-arch comparison requests in the key
// universe (sm_70 against sm_80, plain).
var archCompareKeys = []struct {
	workload string
	scale    int
}{
	{"sgemm_naive", 64}, {"jacobi_naive", 64}, {"jacobi_texture", 128},
	{"transpose_naive", 128}, {"histogram_global", 2}, {"spill_relief", 4},
}

// AnalyzeRequest is the subset of the daemon's POST /v1/analyze body
// the benchmark sends.
type AnalyzeRequest struct {
	Workload    string `json:"workload,omitempty"`
	Scale       int    `json:"scale,omitempty"`
	SASS        string `json:"sass,omitempty"`
	Cubin       []byte `json:"cubin,omitempty"`
	Arch        string `json:"arch,omitempty"`
	ArchCompare string `json:"arch_compare,omitempty"`
	Verify      bool   `json:"verify,omitempty"`
}

// Kinds of daemon requests.
const (
	KindAnalyze = "analyze"
	KindSASS    = "upload_sass"
	KindCubin   = "upload_cubin"
	KindBatch   = "batch"
)

// DaemonRequest is one arrival of the open loop.
type DaemonRequest struct {
	Due   time.Duration    // offset of the due time from the run's start
	Kind  string           // one of the Kind constants
	Items []AnalyzeRequest // one, or BatchItems for a batch
}

// Path is the daemon endpoint the request is posted to.
func (d DaemonRequest) Path() string {
	if d.Kind == KindBatch {
		return "/v1/analyze/batch"
	}
	return "/v1/analyze"
}

// Body is the JSON body of the request.
func (d DaemonRequest) Body() ([]byte, error) {
	if d.Kind == KindBatch {
		return json.Marshal(map[string][]AnalyzeRequest{"requests": d.Items})
	}
	return json.Marshal(d.Items[0])
}

// Key identifies an analysis input: identical keys must yield identical
// reports.
func (r AnalyzeRequest) Key() string {
	b, _ := json.Marshal(r) // a struct of strings, ints and bytes always marshals
	return string(b)
}

// KeyUniverse returns every workload analysis key daemon_zipf can
// draw, in a fixed order (the seed assigns popularity ranks).
func KeyUniverse() []AnalyzeRequest {
	var keys []AnalyzeRequest
	for _, g := range zipfScales {
		for _, w := range g.workloads {
			for _, s := range g.scales {
				for _, arch := range []string{"sm_70", "sm_80"} {
					for _, verify := range []bool{false, true} {
						keys = append(keys, AnalyzeRequest{Workload: w, Scale: s, Arch: arch, Verify: verify})
					}
				}
			}
		}
	}
	for _, k := range archCompareKeys {
		keys = append(keys, AnalyzeRequest{Workload: k.workload, Scale: k.scale, Arch: "sm_70", ArchCompare: "sm_80"})
	}
	return keys
}

// Upload is one fixture kernel in both upload forms.
type Upload struct {
	Name  string
	Arch  string
	SASS  string
	Cubin []byte
}

// LoadUploads reads the upload fixtures from dir.
func LoadUploads(dir string) ([]Upload, error) {
	var out []Upload
	for _, k := range UploadKernels {
		for _, arch := range UploadArches {
			base := filepath.Join(dir, UploadName(k, arch))
			sass, err := os.ReadFile(base + ".sass")
			if err != nil {
				return nil, fmt.Errorf("load upload fixture: %w", err)
			}
			cubin, err := os.ReadFile(base + ".cubin")
			if err != nil {
				return nil, fmt.Errorf("load upload fixture: %w", err)
			}
			out = append(out, Upload{Name: UploadName(k, arch), Arch: arch, SASS: string(sass), Cubin: cubin})
		}
	}
	return out, nil
}

// zipf samples ranks 0..n-1 with probability proportional to
// 1/(rank+1)^s, by inverting the cumulative distribution.
type zipf struct {
	cdf []float64
	r   *rand.Rand
}

func newZipf(r *rand.Rand, n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipf{cdf: cdf, r: r}
}

func (z *zipf) next() int {
	i := sort.SearchFloat64s(z.cdf, z.r.Float64())
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// Ramp is the length in seconds of a run's arrival ramp: RampSeconds,
// or half the run if that is shorter, so every run holds the full rate
// for at least its second half. The latency percentiles cover the
// requests due after it.
func Ramp(seconds float64) float64 { return math.Min(RampSeconds, seconds/2) }

// rankingSeed fixes the Zipf popularity ranking of the key universe.
const rankingSeed = 0

// DaemonSchedule builds the open-loop arrival sequence of one run. The
// arrival rate ramps linearly from zero to DaemonRate over the first
// RampSeconds, then holds; arrival times are drawn from that profile and
// sorted (a Poisson process conditioned on its count, so every seed
// offers the same load). Each arrival is an upload, a batch, or a single
// analysis whose key the seed draws from the Zipf popularity ranking.
func DaemonSchedule(seed int64, seconds float64, uploads []Upload) []DaemonRequest {
	// The popularity ranking is part of the workload, fixed across
	// seeds: with a ranking per seed, which costly keys happened to be
	// hot set the cold-start queue, and the p99 varied 22–53 ms over ten
	// seeds instead of 26–32 ms.
	keys := KeyUniverse()
	ranked := make([]AnalyzeRequest, len(keys))
	for i, j := range rand.New(rand.NewSource(rankingSeed)).Perm(len(keys)) {
		ranked[i] = keys[j]
	}
	r := rand.New(rand.NewSource(seed))
	z := newZipf(r, len(ranked), ZipfS)

	ramp := Ramp(seconds)
	total := seconds - ramp/2 // arrivals per unit rate over the run
	n := int(math.Round(DaemonRate * total))
	due := make([]float64, n)
	for i := range due {
		// Invert the cumulative arrival profile: t²/(2·ramp) during the
		// ramp, ramp/2 + (t − ramp) after it.
		u := r.Float64() * total
		if u < ramp/2 {
			due[i] = math.Sqrt(2 * ramp * u)
		} else {
			due[i] = u + ramp/2
		}
	}
	sort.Float64s(due)

	out := make([]DaemonRequest, n)
	for i := range out {
		d := DaemonRequest{Due: time.Duration(due[i] * float64(time.Second))}
		switch u := r.Float64(); {
		case u < UploadShare && len(uploads) > 0:
			up := uploads[r.Intn(len(uploads))]
			if r.Intn(2) == 0 {
				d.Kind = KindSASS
				d.Items = []AnalyzeRequest{{SASS: up.SASS, Arch: up.Arch}}
			} else {
				d.Kind = KindCubin
				d.Items = []AnalyzeRequest{{Cubin: up.Cubin, Arch: up.Arch}}
			}
		case u < UploadShare+BatchShare:
			d.Kind = KindBatch
			for j := 0; j < BatchItems; j++ {
				d.Items = append(d.Items, ranked[z.next()])
			}
		default:
			d.Kind = KindAnalyze
			d.Items = []AnalyzeRequest{ranked[z.next()]}
		}
		out[i] = d
	}
	return out
}
