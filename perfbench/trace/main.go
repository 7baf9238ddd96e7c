// Command trace is the benchmark's traced run. It replays a workload's
// request sequence by calling each layer's public functions in process
// — workloads, sass/cubin, scout, sim, advisor, store — and the daemon
// over HTTP, records a span around every call from this file, and
// derives every per-layer metric from the spans.
//
//	trace -workload mshr_bound -seed 1 -seconds 20 -bin <dir> -work <dir>
//
// Unlike the end-to-end harness it imports the program's packages, so
// an API refactor may break this program without touching the
// end-to-end numbers.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"gpuscout/internal/advisor"
	"gpuscout/internal/cubin"
	"gpuscout/internal/gpu"
	"gpuscout/internal/sass"
	"gpuscout/internal/scout"
	"gpuscout/internal/sim"
	"gpuscout/internal/store"
	"gpuscout/internal/workloads"
	"gpuscout/perfbench/internal/daemon"
	"gpuscout/perfbench/internal/plan"
)

// perLayer lists every per-layer metric with its unit, in the order
// BENCHMARK.json names them. A layer the workload does not exercise
// reports 0.
var perLayer = []struct{ name, unit string }{
	{"sim.busy_ms", "ms"},
	{"sim.launches", "count"},
	{"sim.warp_insts", "count"},
	{"sim.cycles", "count"},
	{"sim.l1_miss_sectors", "count"},
	{"sim.host_ns_per_winst", "ns"},
	{"sim.host_ns_per_l1_miss", "ns"},
	{"advisor.verify_ms", "ms"},
	{"advisor.verify_variants", "count"},
	{"advisor.sweep_ms", "ms"},
	{"advisor.sweep_perturbations", "count"},
	{"scout.static_ms", "ms"},
	{"scout.evaluate_ms", "ms"},
	{"scout.encode_ms", "ms"},
	{"service.requests", "count"},
	{"service.mem_hits", "count"},
	{"service.store_hits", "count"},
	{"service.misses", "count"},
	{"service.hit_ratio", "share"},
	{"service.rejected", "count"},
	{"service.hit_mem_ms", "ms"},
	{"service.hit_store_ms", "ms"},
	{"service.miss_ms", "ms"},
	{"store.append_ms", "ms"},
	{"store.put_ms", "ms"},
	{"store.get_ms", "ms"},
	{"workloads.build_ms", "ms"},
	{"sass.parse_ms", "ms"},
	{"loadgen.lag_ms.p99", "ms"},
	{"trace.overhead_pct", "%"},
}

type env struct {
	bin, work, fixtures string
	seed                int64
	seconds             float64
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to replay: "+strings.Join(plan.Workloads, ", "))
		seed     = flag.Int64("seed", 1, "seed of the request sequence")
		seconds  = flag.Float64("seconds", 20, "measured duration")
		bin      = flag.String("bin", "", "directory holding the gpuscout and gpuscoutd binaries")
		work     = flag.String("work", "", "scratch directory for this run")
		fixtures = flag.String("fixtures", "", "directory of the upload fixtures")
		record   = flag.String("record", "", "file to write the full result record to")
	)
	flag.Parse()
	if *bin == "" || *work == "" || *record == "" || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "trace: -bin, -work, -record and a positive -seconds are required")
		os.Exit(2)
	}
	e := env{bin: *bin, work: *work, fixtures: *fixtures, seed: *seed, seconds: *seconds}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		fatal(err)
	}

	fmt.Printf("perfbench trace: workload=%s seed=%d seconds=%g\n", *workload, *seed, *seconds)
	header := map[string]any{"workload": *workload, "seed": *seed, "seconds": *seconds, "trace": 1}
	spans := strings.TrimSuffix(*record, ".json") + ".spans.json"
	header["spans"] = spans
	gate := plan.NewGate()
	var m map[string]float64
	var err error
	if mix, ok := plan.Mix(*workload); ok {
		m, err = traceCLI(e, mix, gate, spans, header)
	} else if *workload == plan.DaemonZipf {
		m, err = traceDaemon(e, gate, spans, header)
	} else {
		err = fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(plan.Workloads, ", "))
	}
	if err != nil {
		fatal(err)
	}

	res := &plan.Result{Correct: len(gate.Violations) == 0, Attempted: int(m["attempted"]), Failed: int(m["failed"])}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	for _, p := range perLayer {
		res.Set(p.name, m[p.name], p.unit)
	}
	for _, v := range gate.Violations {
		fmt.Printf("GATE: %s\n", v)
	}
	header["violations"] = gate.Violations
	if err := res.Emit(os.Stdout, *record, header); err != nil {
		fatal(err)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "trace:", err)
	os.Exit(1)
}

// kernelReq is one in-process analysis: a workload kernel at a scale on
// an arch, with the report options the request asks for.
type kernelReq struct {
	name        string
	scale       int
	arch        gpu.Arch
	sim         sim.Config
	dryRunFirst bool // time the set-up's static-only pass first
	verify      bool
	sweep       bool
	slices      bool
}

// analyze replays one analysis through the layers, as the CLI or the
// daemon's miss path runs it, and returns the report.
func analyze(ctx context.Context, rec *Recorder, parent, req int, k kernelReq) (*scout.Report, error) {
	sp := rec.Begin("workloads.build", parent, req)
	w, err := workloads.BuildArch(k.name, k.scale, k.arch)
	rec.Finish(sp, nil)
	if err != nil {
		return nil, err
	}
	if k.dryRunFirst {
		sp = rec.Begin("scout.static", parent, req)
		_, err = scout.AnalyzeContext(ctx, k.arch, w.Kernel, nil, scout.Options{DryRun: true})
		rec.Finish(sp, nil)
		if err != nil {
			return nil, err
		}
	}
	return analyzeBuilt(ctx, rec, parent, req, k, w)
}

func analyzeBuilt(ctx context.Context, rec *Recorder, parent, req int, k kernelReq, w *workloads.Workload) (*scout.Report, error) {
	an := rec.Begin("scout.analyze", parent, req)
	run := func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		sp := rec.Begin("sim.run", an, req)
		res, err := workloads.ExecuteContext(ctx, w, sim.NewDevice(k.arch), cfg)
		var counts map[string]float64
		if err == nil {
			counts = simCounts(res)
		}
		rec.Finish(sp, counts)
		return res, err
	}
	rep, err := scout.AnalyzeContext(ctx, k.arch, w.Kernel, run, scout.Options{Sim: k.sim, StallSlices: k.slices})
	rec.Finish(an, nil)
	if err != nil {
		return nil, err
	}
	if k.verify {
		sp := rec.Begin("advisor.verify", parent, req)
		sum, err := advisor.Verify(ctx, rep, k.name, k.scale, k.arch, k.sim)
		var counts map[string]float64
		if err == nil {
			counts = map[string]float64{"variants": float64(sum.Checked)}
		}
		rec.Finish(sp, counts)
		if err != nil {
			return nil, err
		}
	}
	if k.sweep {
		sp := rec.Begin("advisor.sweep", parent, req)
		sens, err := advisor.Sweep(ctx, rep, k.name, k.scale, k.arch, k.sim)
		var counts map[string]float64
		if err == nil {
			counts = map[string]float64{"perturbations": float64(len(sens.Deltas))}
		}
		rec.Finish(sp, counts)
		if err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// simCounts are the simulated counts of one launch. l1_miss_sectors
// counts the sectors that went through L1 miss (MSHR) admission: global,
// local and texture load misses plus every async-copy sector.
func simCounts(res *sim.Result) map[string]float64 {
	c := res.Counters
	miss := (c.GlobalLdSectors - c.GlobalLdSectorHits) + (c.LocalLdSectors - c.LocalLdSectorHits) +
		(c.TexSectors - c.TexSectorHits) + c.AsyncCopySectors
	return map[string]float64{
		"launches":        1,
		"warp_insts":      float64(c.WarpInsts),
		"cycles":          res.Cycles,
		"l1_miss_sectors": float64(miss),
	}
}

// encode times the report's two renderings, JSON and text.
func encode(rec *Recorder, parent, req int, rep *scout.Report) ([]byte, error) {
	sp := rec.Begin("scout.encode", parent, req)
	defer rec.Finish(sp, nil)
	data, err := rep.MarshalJSON()
	if err != nil {
		return nil, fmt.Errorf("encode report: %w", err)
	}
	_ = rep.Render()
	return data, nil
}

// layerMetrics derives the layer metrics shared by every workload from
// one traced pass's spans.
func layerMetrics(layers map[string]*Layer) map[string]float64 {
	get := func(name string) *Layer {
		if l := layers[name]; l != nil {
			return l
		}
		return &Layer{Counts: map[string]float64{}}
	}
	simL := get("sim.run")
	m := map[string]float64{
		"sim.busy_ms":                 ms(simL.Total),
		"sim.launches":                simL.Counts["launches"],
		"sim.warp_insts":              simL.Counts["warp_insts"],
		"sim.cycles":                  simL.Counts["cycles"],
		"sim.l1_miss_sectors":         simL.Counts["l1_miss_sectors"],
		"advisor.verify_ms":           ms(get("advisor.verify").Total),
		"advisor.verify_variants":     get("advisor.verify").Counts["variants"],
		"advisor.sweep_ms":            ms(get("advisor.sweep").Total),
		"advisor.sweep_perturbations": get("advisor.sweep").Counts["perturbations"],
		"scout.static_ms":             ms(get("scout.static").Total),
		"scout.evaluate_ms":           ms(get("scout.analyze").Self),
		"scout.encode_ms":             ms(get("scout.encode").Total),
		"workloads.build_ms":          ms(get("workloads.build").Total),
		"sass.parse_ms":               ms(get("sass.parse").Total),
	}
	if n := m["sim.warp_insts"]; n > 0 {
		m["sim.host_ns_per_winst"] = float64(simL.Total) / n
	}
	if n := m["sim.l1_miss_sectors"]; n > 0 {
		m["sim.host_ns_per_l1_miss"] = float64(simL.Total) / n
	}
	return m
}

// simulated names the per-layer metrics that are simulated counts: they
// must repeat exactly for the same inputs.
var simulated = []string{"sim.launches", "sim.warp_insts", "sim.cycles", "sim.l1_miss_sectors",
	"advisor.verify_variants", "advisor.sweep_perturbations"}

// traceCLI replays a closed-loop workload's cycles in process,
// alternating traced and untraced cycles until the measured duration
// has passed (at least one of each). Time metrics are medians over the
// traced cycles, each a per-cycle total; counts are per cycle and must
// repeat exactly. Every report must match the gpuscout binary's report
// for the same kernel.
func traceCLI(e env, mix plan.CLIMix, gate *plan.Gate, spansPath string, header map[string]any) (map[string]float64, error) {
	arch, err := gpu.ByName(mix.Arch)
	if err != nil {
		return nil, err
	}
	gateCLI(e, mix, gate)
	ctx := context.Background()
	t0 := time.Now()
	var traced []*Recorder
	var perCycle []map[string]float64
	var tracedS, untracedS []float64
	attempted, failed := 0, 0
	for c := 0; c < 2 || time.Since(t0).Seconds() < e.seconds; c++ {
		rec := newRecorder(c%2 == 0, t0)
		start := time.Now()
		for i, name := range mix.Cycle(e.seed, c) {
			attempted++
			req := c*len(mix.Kernels) + i
			root := rec.Begin("request", -1, req)
			k := kernelReq{name: name, scale: mix.Scale, arch: arch, sim: sim.Config{SampleSMs: 2},
				dryRunFirst: true, verify: mix.Full, sweep: mix.Full, slices: mix.Full}
			rep, err := analyze(ctx, rec, root, req, k)
			var data []byte
			if err == nil {
				data, err = encode(rec, root, req, rep)
			}
			rec.Finish(root, nil)
			if err == nil {
				err = checkReport(gate, name, data, true)
			}
			if err != nil {
				failed++
				gate.Fail(fmt.Sprintf("%s: %v", name, err))
			}
		}
		if rec.on {
			tracedS = append(tracedS, time.Since(start).Seconds())
			traced = append(traced, rec)
			m := layerMetrics(rec.Layers())
			if len(perCycle) > 0 {
				for _, name := range simulated {
					if m[name] != perCycle[0][name] {
						gate.Fail(fmt.Sprintf("cycle %d: %s = %g, first traced cycle had %g", c, name, m[name], perCycle[0][name]))
					}
				}
			}
			perCycle = append(perCycle, m)
		} else {
			untracedS = append(untracedS, time.Since(start).Seconds())
		}
	}

	out := map[string]float64{"attempted": float64(attempted), "failed": float64(failed)}
	for name := range perCycle[0] {
		var xs []float64
		for _, m := range perCycle {
			xs = append(xs, m[name])
		}
		out[name] = plan.Median(xs)
	}
	out["trace.overhead_pct"] = 100 * (plan.Median(tracedS) - plan.Median(untracedS)) / plan.Median(untracedS)
	fmt.Printf("closed-loop replay in process: %d traced and %d untraced cycles of %d kernels; times are per-cycle medians\n",
		len(tracedS), len(untracedS), len(mix.Kernels))
	header["traced_cycle_s"] = tracedS
	header["untraced_cycle_s"] = untracedS
	return out, writeSpans(spansPath, traced)
}

// gateCLI runs the gpuscout binary once on every kernel of the mix, as
// the end-to-end run does, and enters its reports in the gate first: the
// in-process replay must then match the binary's reports, not only its
// own, so its per-layer numbers describe the simulation the end-to-end
// run measures.
func gateCLI(e env, mix plan.CLIMix, gate *plan.Gate) {
	out := filepath.Join(e.work, "report.json")
	for _, k := range mix.Kernels {
		_ = os.Remove(out) // a stale report must not pass for this one
		if b, err := exec.Command(filepath.Join(e.bin, "gpuscout"), mix.Args(k, out)...).CombinedOutput(); err != nil {
			gate.Fail(fmt.Sprintf("gpuscout %s: %v: %s", k, err, strings.TrimSpace(string(b))))
			continue
		}
		data, err := os.ReadFile(out)
		if err == nil {
			err = checkReport(gate, k, data, true)
		}
		if err != nil {
			gate.Fail(fmt.Sprintf("gpuscout %s: %v", k, err))
		}
	}
}

func checkReport(gate *plan.Gate, key string, data []byte, wantDynamic bool) error {
	d, err := plan.DigestReport(data, wantDynamic)
	if err != nil {
		return err
	}
	if !gate.Check(key, d) {
		return errors.New("report differs from an earlier identical request")
	}
	return nil
}

func writeSpans(path string, recs []*Recorder) error {
	all := newRecorder(true, time.Time{})
	for _, r := range recs {
		base := len(all.spans)
		for _, s := range r.spans {
			s.ID += base
			if s.Parent >= 0 {
				s.Parent += base
			}
			all.spans = append(all.spans, s)
		}
	}
	return all.Write(path)
}

// storeKey maps a request key to a report-store key (a hex digest).
func storeKey(key string) string {
	h := sha256.Sum256([]byte(key))
	return hex.EncodeToString(h[:])
}

// overheadPrefix is how many requests of daemon_zipf's sequence the
// untraced in-process pass replays to measure the tracing overhead.
const overheadPrefix = 1500

// traceDaemon measures daemon_zipf in three phases over the same seeded
// request sequence: the open loop as the end-to-end run sends it (for
// the generator's lag); a sequential replay against a fresh daemon,
// classifying every request by the /metrics counters it moved; and an
// in-process replay through the layers and a temporary store.
func traceDaemon(e env, gate *plan.Gate, spansPath string, header map[string]any) (map[string]float64, error) {
	uploads, err := plan.LoadUploads(e.fixtures)
	if err != nil {
		return nil, err
	}
	sched := plan.DaemonSchedule(e.seed, e.seconds, uploads)
	gpuscoutd := filepath.Join(e.bin, "gpuscoutd")
	out := map[string]float64{"attempted": float64(len(sched))}

	// Phase 1: the open loop, untraced.
	d, _, err := daemon.Start(gpuscoutd, filepath.Join(e.work, "data-open"))
	if err != nil {
		return nil, err
	}
	outs := daemon.OpenLoop(d, sched)
	d.Stop()
	var lag []float64
	for i, o := range outs {
		lag = append(lag, o.LagMS)
		if o.Wrong {
			gate.Fail(fmt.Sprintf("open-loop request %d (%s): %v", i, sched[i].Kind, o.Err))
		}
		for j, dg := range o.Digests {
			gate.Check(sched[i].Items[j].Key(), dg)
		}
	}
	out["loadgen.lag_ms.p99"] = plan.Quantile(lag, 0.99)

	// Phase 2: sequential replay, counted from outside.
	if err := replayHTTP(gpuscoutd, filepath.Join(e.work, "data-seq"), sched, gate, out); err != nil {
		return nil, err
	}

	// Phase 3: in process. The whole sequence runs traced, between two
	// untraced runs of a prefix: the first warms the process up, the
	// second is the untraced time the overhead compares the traced
	// prefix with.
	prefix := min(len(sched), overheadPrefix)
	untracedPass := func(name string) (time.Duration, error) {
		start := time.Now()
		err := replayInProcess(newRecorder(false, start), filepath.Join(e.work, name), sched[:prefix], gate)
		return time.Since(start), err
	}
	if _, err := untracedPass("store-warmup"); err != nil {
		return nil, err
	}
	rec := newRecorder(true, time.Now())
	if err := replayInProcess(rec, filepath.Join(e.work, "store-traced"), sched, gate); err != nil {
		return nil, err
	}
	untraced, err := untracedPass("store-untraced")
	if err != nil {
		return nil, err
	}
	tracedPrefix := rec.spans[len(rec.spans)-1].End // the whole sequence, if it is the prefix
	for _, s := range rec.spans {
		if s.Parent < 0 && s.Req == prefix {
			tracedPrefix = s.Start
			break
		}
	}
	layers := rec.Layers()
	for k, v := range layerMetrics(layers) {
		out[k] = v
	}
	for name, metric := range map[string]string{
		"store.append": "store.append_ms", "store.put": "store.put_ms", "store.get": "store.get_ms",
	} {
		out[metric] = ms(medianDur(rec.durations(name)))
	}
	out["trace.overhead_pct"] = 100 * float64(tracedPrefix-untraced) / float64(untraced)
	fmt.Printf("daemon replay: %d requests open-loop, sequentially over HTTP, and in process (first %d: %.2f s untraced, %.2f s traced)\n",
		len(sched), prefix, untraced.Seconds(), tracedPrefix.Seconds())
	header["caches"] = "empty at start of every phase: new daemon processes, empty data dirs and store"
	return out, writeSpans(spansPath, []*Recorder{rec})
}

// replayHTTP sends the sequence one request at a time to a fresh daemon
// and classifies each single-item request by the /metrics series it
// moved: memory hit, store hit or miss.
func replayHTTP(gpuscoutd, dataDir string, sched []plan.DaemonRequest, gate *plan.Gate, out map[string]float64) error {
	d, _, err := daemon.Start(gpuscoutd, dataDir)
	if err != nil {
		return err
	}
	defer d.Stop()
	series := map[string]string{
		"mem":   "gpuscoutd_cache_hits_total",
		"store": "gpuscoutd_store_hits_total",
		"miss":  "gpuscoutd_cache_misses_total",
		"shed":  "gpuscoutd_quarantined_total",
	}
	before, err := d.Counters()
	if err != nil {
		return err
	}
	for _, name := range series {
		if _, ok := before[name]; !ok {
			fmt.Printf("service: series %s absent from /metrics\n", name)
		}
	}
	lat := map[string][]float64{}
	rejected, failed, items := 0, 0, 0
	for i, r := range sched {
		items += len(r.Items)
		t := time.Now()
		code, body, err := d.Do(r)
		msLat := ms(time.Since(t))
		after, cerr := d.Counters()
		if cerr != nil {
			return cerr
		}
		delta := map[string]float64{}
		for k, name := range series {
			delta[k] = after[name] - before[name]
		}
		before = after
		out["service.mem_hits"] += delta["mem"]
		out["service.store_hits"] += delta["store"]
		out["service.misses"] += delta["miss"]
		rejected += int(delta["shed"])
		if err != nil || code == 429 || code == 503 {
			rejected++
			failed++
			continue
		}
		resp, err := daemon.Decode(r, code, body)
		var digests []plan.Digest
		if err == nil {
			digests, err = daemon.Check(r, resp)
		}
		if err != nil {
			failed++
			gate.Fail(fmt.Sprintf("sequential request %d (%s): %v", i, r.Kind, err))
			continue
		}
		for j, dg := range digests {
			if !gate.Check(r.Items[j].Key(), dg) {
				failed++
			}
		}
		if len(r.Items) == 1 {
			switch {
			case delta["store"] > 0:
				lat["store"] = append(lat["store"], msLat)
			case delta["mem"] > 0:
				lat["mem"] = append(lat["mem"], msLat)
			case delta["miss"] > 0:
				lat["miss"] = append(lat["miss"], msLat)
			}
		}
	}
	hits := out["service.mem_hits"] + out["service.store_hits"]
	if all := hits + out["service.misses"]; all > 0 {
		out["service.hit_ratio"] = hits / all
	}
	out["service.requests"] = float64(items)
	out["service.rejected"] = float64(rejected)
	out["service.hit_mem_ms"] = plan.Median(lat["mem"])
	out["service.hit_store_ms"] = plan.Median(lat["store"])
	out["service.miss_ms"] = plan.Median(lat["miss"])
	out["failed"] = float64(failed)
	fmt.Printf("service, sequential replay: %d items; latency samples: %d memory hits, %d store hits, %d misses\n",
		items, len(lat["mem"]), len(lat["store"]), len(lat["miss"]))
	return nil
}

// replayInProcess runs the sequence through the layers the daemon calls:
// journal the accept, resolve the input (build the workload, or parse
// the upload), serve a repeat from the store or analyze a first sight
// and store its report, journal the tombstone.
func replayInProcess(rec *Recorder, dir string, sched []plan.DaemonRequest, gate *plan.Gate) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	ctx := context.Background()
	seen := map[string]bool{}
	job := 0
	for i, r := range sched {
		root := rec.Begin("request", -1, i)
		for _, item := range r.Items {
			job++
			id := fmt.Sprintf("j%08d", job)
			key := item.Key()
			skey := storeKey(key)
			reqJSON, err := json.Marshal(item)
			if err != nil {
				return err
			}
			sp := rec.Begin("store.append", root, i)
			err = st.AppendAccept(id, skey[:16], reqJSON)
			rec.Finish(sp, nil)
			if err != nil {
				return fmt.Errorf("journal accept: %w", err)
			}
			data, err := resolveAndAnalyze(ctx, rec, root, i, item, st, skey, seen[key])
			if err != nil {
				gate.Fail(fmt.Sprintf("in-process request %d (%s): %v", i, r.Kind, err))
			} else if !seen[key] {
				seen[key] = true
				if err := checkReport(gate, key, data, item.Workload != ""); err != nil {
					gate.Fail(fmt.Sprintf("in-process request %d (%s): %v", i, r.Kind, err))
				}
			}
			sp = rec.Begin("store.append", root, i)
			err = st.AppendTombstone(id, "done")
			rec.Finish(sp, nil)
			if err != nil {
				return fmt.Errorf("journal tombstone: %w", err)
			}
		}
		rec.Finish(root, nil)
	}
	return nil
}

// resolveAndAnalyze is one item of the in-process replay. A repeat reads
// its report from the store; a first sight is analyzed and stored.
func resolveAndAnalyze(ctx context.Context, rec *Recorder, root, req int, item plan.AnalyzeRequest, st *store.Store, skey string, repeat bool) ([]byte, error) {
	archName := item.Arch
	if archName == "" {
		archName = "sm_70"
	}
	arch, err := gpu.ByName(archName)
	if err != nil {
		return nil, err
	}
	var k *sass.Kernel
	var built []*workloads.Workload
	var arches []gpu.Arch
	switch {
	case item.SASS != "":
		sp := rec.Begin("sass.parse", root, req)
		k, err = sass.Parse(item.SASS)
		rec.Finish(sp, nil)
	case len(item.Cubin) > 0:
		sp := rec.Begin("sass.parse", root, req)
		var bin *cubin.Binary
		if bin, err = cubin.Decode(item.Cubin); err == nil && len(bin.Kernels) > 0 {
			k = bin.Kernels[0]
		} else if err == nil {
			err = errors.New("cubin holds no kernels")
		}
		rec.Finish(sp, nil)
	default:
		arches = []gpu.Arch{arch}
		if item.ArchCompare != "" {
			other, err := gpu.ByName(item.ArchCompare)
			if err != nil {
				return nil, err
			}
			arches = append(arches, other)
		}
		sp := rec.Begin("workloads.build", root, req)
		for _, a := range arches {
			w, berr := workloads.BuildArch(item.Workload, item.Scale, a)
			if berr != nil {
				err = berr
				break
			}
			built = append(built, w)
		}
		rec.Finish(sp, nil)
	}
	if err != nil {
		return nil, err
	}

	if repeat {
		sp := rec.Begin("store.get", root, req)
		data, ok := st.GetReport(skey)
		rec.Finish(sp, nil)
		if !ok {
			return nil, errors.New("stored report missing")
		}
		return data, nil
	}

	var data []byte
	if k != nil {
		sp := rec.Begin("scout.static", root, req)
		rep, aerr := scout.AnalyzeContext(ctx, arch, k, nil, scout.Options{DryRun: true})
		rec.Finish(sp, nil)
		if aerr != nil {
			return nil, aerr
		}
		if data, err = encode(rec, root, req, rep); err != nil {
			return nil, err
		}
	} else {
		reps := make([]*scout.Report, len(built))
		for i, w := range built {
			kr := kernelReq{name: item.Workload, scale: item.Scale, arch: arches[i],
				sim: sim.Config{Workers: 1}, verify: item.Verify}
			if reps[i], err = analyzeBuilt(ctx, rec, root, req, kr, w); err != nil {
				return nil, err
			}
		}
		if len(reps) == 2 {
			sp := rec.Begin("scout.encode", root, req)
			data, err = scout.CompareReports(reps[0], reps[1]).MarshalJSON()
			rec.Finish(sp, nil)
		} else {
			data, err = encode(rec, root, req, reps[0])
		}
		if err != nil {
			return nil, err
		}
	}
	sp := rec.Begin("store.put", root, req)
	err = st.PutReport(skey, skey[:16], data)
	rec.Finish(sp, nil)
	if err != nil {
		return nil, fmt.Errorf("store report: %w", err)
	}
	return data, nil
}

// durations returns the duration of every span with the given name.
func (r *Recorder) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(plan.Median(xs))
}
