// Command e2e is the benchmark's end-to-end harness. It drives the
// system only through its outside surfaces — the gpuscout CLI binary
// and a gpuscoutd process reached over HTTP — and imports none of the
// program's packages, so it keeps measuring the same thing across
// refactors of their APIs.
//
//	e2e -workload report_full -seed 1 -seconds 20 -bin <dir> -work <dir>
//
// It prints every end-to-end metric with its unit and, last, one JSON
// result line; it exits 1 when a correctness check fails.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"gpuscout/perfbench/internal/daemon"
	"gpuscout/perfbench/internal/plan"
)

// Set-up is timed in many rounds spread over time, and setup_s is the
// median round. On a shared host the CPU speed drifts by a quarter from
// one second to the next, so rounds taken back to back all land in
// whatever state the host is in for that second: the daemon's start-up
// medians of ten such runs split into two groups, about 3.9 and 5.7 ms.
const (
	// cliSetupEvery spaces the closed loops' set-up rounds: one runs
	// between two requests whenever this long has passed since the last,
	// across the whole measured run.
	cliSetupEvery = time.Second
	// The open loop cannot stop for set-up, so the daemon's rounds run
	// before and after it: daemonSetupRounds on each side, each after a
	// pause of daemonSetupPause.
	daemonSetupRounds = 32
	daemonSetupPause  = 125 * time.Millisecond
)

// timeSetup times n rounds of set-up, each after pause, and returns each
// round's time in seconds.
func timeSetup(n int, pause time.Duration, round func() (time.Duration, error)) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		time.Sleep(pause)
		d, err := round()
		if err != nil {
			return nil, err
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

type env struct {
	bin      string // directory holding gpuscout and gpuscoutd
	work     string // scratch directory of this run
	fixtures string
	seed     int64
	seconds  float64
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(plan.Workloads, ", "))
		seed     = flag.Int64("seed", 1, "seed of the request order, Zipf keys and arrival schedule")
		seconds  = flag.Float64("seconds", 20, "measured duration")
		bin      = flag.String("bin", "", "directory holding the gpuscout and gpuscoutd binaries")
		work     = flag.String("work", "", "scratch directory for this run")
		fixtures = flag.String("fixtures", "", "directory of the upload fixtures")
		record   = flag.String("record", "", "file to write the full result record to")
	)
	flag.Parse()
	if *bin == "" || *work == "" || *record == "" || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "e2e: -bin, -work, -record and a positive -seconds are required")
		os.Exit(2)
	}
	e := env{bin: *bin, work: *work, fixtures: *fixtures, seed: *seed, seconds: *seconds}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		fatal(err)
	}

	fmt.Printf("perfbench e2e: workload=%s seed=%d seconds=%g\n", *workload, *seed, *seconds)
	header := map[string]any{"workload": *workload, "seed": *seed, "seconds": *seconds, "trace": 0}
	var res *plan.Result
	var err error
	if mix, ok := plan.Mix(*workload); ok {
		res, err = runCLI(e, mix, header)
	} else if *workload == plan.DaemonZipf {
		res, err = runDaemon(e, header)
	} else {
		err = fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(plan.Workloads, ", "))
	}
	if err != nil {
		fatal(err)
	}
	if err := res.Emit(os.Stdout, *record, header); err != nil {
		fatal(err)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2e:", err)
	os.Exit(1)
}

// runCLI is a closed loop with one client: each request is one gpuscout
// process, and the next starts when it exits. It cycles over the kernel
// mix until the measured duration has passed, and at least once. Every
// metric is built from per-kernel statistics, so a cycle cut short by
// the deadline does not tilt the mix.
func runCLI(e env, mix plan.CLIMix, header map[string]any) (*plan.Result, error) {
	gpuscout := filepath.Join(e.bin, "gpuscout")

	setupRound := func() (time.Duration, error) {
		t := time.Now()
		for _, k := range mix.Kernels {
			if out, err := exec.Command(gpuscout, mix.DryRunArgs(k)...).CombinedOutput(); err != nil {
				return 0, fmt.Errorf("set-up dry run of %s: %v: %s", k, err, out)
			}
		}
		return time.Since(t), nil
	}
	// One unmeasured round pages the freshly built binaries in.
	if _, err := setupRound(); err != nil {
		return nil, err
	}
	var setups []float64
	var lastSetup time.Time

	gate := plan.NewGate()
	out := filepath.Join(e.work, "report.json")
	var lat []float64
	byKernel := map[string][]float64{} // latency of every correct report, by kernel
	rssKB := map[string][]float64{}    // max RSS of every report process, by kernel
	attempted, good, cycles := 0, 0, 0
	steal, err := plan.StartSteal()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	done := func() bool { return cycles > 0 && time.Since(start).Seconds() >= e.seconds }
	for !done() {
		for _, k := range mix.Cycle(e.seed, cycles) {
			if done() {
				break
			}
			if time.Since(lastSetup) >= cliSetupEvery {
				d, err := setupRound()
				if err != nil {
					return nil, err
				}
				setups = append(setups, d.Seconds())
				lastSetup = time.Now()
			}
			attempted++
			_ = os.Remove(out) // a stale report must not pass for this one
			var stderr bytes.Buffer
			cmd := exec.Command(gpuscout, mix.Args(k, out)...)
			cmd.Stderr = &stderr
			t := time.Now()
			err := cmd.Run()
			ms := float64(time.Since(t)) / float64(time.Millisecond)
			if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
				rssKB[k] = append(rssKB[k], float64(ru.Maxrss))
			}
			if err != nil {
				gate.Fail(fmt.Sprintf("%s: %v: %s", k, err, strings.TrimSpace(stderr.String())))
				continue
			}
			data, err := os.ReadFile(out)
			if err != nil {
				gate.Fail(fmt.Sprintf("%s: %v", k, err))
				continue
			}
			d, err := plan.DigestReport(data, true)
			if err != nil {
				gate.Fail(fmt.Sprintf("%s: %v", k, err))
				continue
			}
			if !gate.Check(k, d) {
				continue
			}
			lat = append(lat, ms)
			byKernel[k] = append(byKernel[k], ms)
			if ms <= mix.LimitMS {
				good++
			}
		}
		cycles++
	}
	elapsed := time.Since(start).Seconds()
	stolen, err := steal.Share()
	if err != nil {
		return nil, err
	}

	failed := attempted - len(lat)
	res := &plan.Result{Correct: len(gate.Violations) == 0, Attempted: attempted, Failed: failed}
	res.Set("setup_s", plan.Median(setups), "s")
	// Each metric is taken over a typical cycle, built from per-kernel
	// statistics, so one slow or bloated process in a run does not move
	// it while a change to any kernel does. Latency and throughput use
	// each kernel's median latency. Memory uses each kernel's mean max
	// RSS, which moves smoothly where a median would jump between the two
	// levels a Go process's heap settles at.
	var medians []float64
	cycleMS, peakKB := 0.0, 0.0
	for _, k := range mix.Kernels {
		m := plan.Median(byKernel[k])
		medians = append(medians, m)
		cycleMS += m
		peakKB = max(peakKB, plan.Mean(rssKB[k]))
	}
	res.Set("latency_ms.p50", plan.Median(medians), "ms")
	res.Set("reports_per_s", float64(len(mix.Kernels))/(cycleMS/1000), "1/s")
	res.Set("goodput_share", float64(good)/float64(attempted), "share")
	res.Set("peak_rss_mb", peakKB/1024, "MB")

	fmt.Printf("closed loop, 1 client, arch %s: %d reports of %d kernels in %.2f s\n",
		mix.Arch, attempted, len(mix.Kernels), elapsed)
	fmt.Printf("latency samples: %d, %d or %d per kernel; goodput limit %.0f ms\n",
		len(lat), cycles-1, cycles, mix.LimitMS)
	printSteal(stolen)
	for _, v := range gate.Violations {
		fmt.Printf("GATE: %s\n", v)
	}
	header["cycles"] = cycles
	header["latency_ms_by_kernel"] = byKernel
	header["max_rss_kb_by_kernel"] = rssKB
	header["latency_samples"] = len(lat)
	header["setup_rounds_s"] = setups
	header["host_steal_share"] = stolen
	header["violations"] = gate.Violations
	header["digests"] = gate.Digests()
	return res, nil
}

// runDaemon is an open loop against one gpuscoutd started on an empty
// data directory: the seeded schedule's requests are sent at their due
// times over at most plan.DaemonClients connections, and each latency
// counts from the request's due time, so a stall delays later requests
// in the numbers as it does for users.
func runDaemon(e env, header map[string]any) (*plan.Result, error) {
	uploads, err := plan.LoadUploads(e.fixtures)
	if err != nil {
		return nil, err
	}
	gpuscoutd := filepath.Join(e.bin, "gpuscoutd")
	dataDir := filepath.Join(e.work, "data")

	setupRound := func() (time.Duration, error) {
		d, ready, err := daemon.Start(gpuscoutd, dataDir)
		if err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		d.Stop()
		return ready, nil
	}
	// One unmeasured round pages the freshly built binary in.
	if _, err := setupRound(); err != nil {
		return nil, err
	}
	setups, err := timeSetup(daemonSetupRounds, daemonSetupPause, setupRound)
	if err != nil {
		return nil, err
	}

	d, _, err := daemon.Start(gpuscoutd, dataDir)
	if err != nil {
		return nil, err
	}
	sched := plan.DaemonSchedule(e.seed, e.seconds, uploads)
	steal, err := plan.StartSteal()
	if err != nil {
		d.Stop()
		return nil, err
	}
	outs := daemon.OpenLoop(d, sched)
	stolen, err := steal.Share()
	if err != nil {
		d.Stop()
		return nil, err
	}
	rss, err := d.PeakRSSMB()
	d.Stop()
	if err != nil {
		return nil, err
	}
	after, err := timeSetup(daemonSetupRounds, daemonSetupPause, setupRound)
	if err != nil {
		return nil, err
	}
	setups = append(setups, after...)

	gate := plan.NewGate()
	var lat, lag []float64
	attempted, answered, good, hits := len(sched), 0, 0, 0
	ramp := time.Duration(plan.Ramp(e.seconds) * float64(time.Second))
	var last time.Duration
	for i, o := range outs {
		lag = append(lag, o.LagMS)
		if o.End > last {
			last = o.End
		}
		if o.Err != nil {
			if o.Wrong {
				gate.Fail(fmt.Sprintf("request %d (%s): %v", i, sched[i].Kind, o.Err))
			}
			continue
		}
		ok := true
		for j, dg := range o.Digests {
			ok = gate.Check(sched[i].Items[j].Key(), dg) && ok
		}
		if !ok {
			continue
		}
		hits += o.Hits
		if o.LatencyMS <= plan.DaemonLimitMS {
			good++
		}
		// Percentiles cover the requests due at the fixed rate. During
		// the ramp the caches fill from empty, and the depth of that
		// start-up queue, which swings with the host, would set the p99.
		if sched[i].Due >= ramp {
			lat = append(lat, o.LatencyMS)
		}
		answered++
	}
	elapsed := last.Seconds()

	res := &plan.Result{Correct: len(gate.Violations) == 0, Attempted: attempted, Failed: attempted - answered}
	res.Set("setup_s", plan.Median(setups), "s")
	res.Set("latency_ms.p50", plan.Median(lat), "ms")
	res.Set("reports_per_s", float64(answered)/elapsed, "1/s")
	res.Set("goodput_share", float64(good)/float64(attempted), "share")
	res.Set("peak_rss_mb", rss, "MB")

	fmt.Printf("open loop at %.0f req/s (Poisson, count fixed), %d connections; caches and data dir empty at start\n",
		plan.DaemonRate, plan.DaemonClients)
	fmt.Printf("%d requests, %d answered correctly, %d cache hits; latency samples %d (due after the %.0f s ramp); goodput limit %.0f ms; generator lag p99 %.3f ms\n",
		attempted, answered, hits, len(lat), ramp.Seconds(), plan.DaemonLimitMS, plan.Quantile(lag, 0.99))
	// The p99 is printed and recorded but is not an end-to-end metric:
	// it is set by the few bursts of hits queued behind misses in a run,
	// and its spread over ten seeds did not stay within the largest bound
	// the benchmark may set (README.md, "The p99 is recorded, not gated").
	p99 := plan.Quantile(lat, 0.99)
	fmt.Printf("latency p99 %.3f ms over %d samples (recorded only, not an end-to-end metric)\n", p99, len(lat))
	printSteal(stolen)
	for _, v := range gate.Violations {
		fmt.Printf("GATE: %s\n", v)
	}
	header["latency_samples"] = len(lat)
	header["latency_ms_p99"] = p99
	header["slowest"] = slowest(sched, outs, 20)
	header["timeline"] = timeline(sched, outs)
	header["cache_hits"] = hits
	header["loadgen_lag_ms_p99"] = plan.Quantile(lag, 0.99)
	header["setup_rounds_s"] = setups
	header["host_steal_share"] = stolen
	header["violations"] = gate.Violations
	header["caches"] = "empty at start: new process, empty -data-dir"
	return res, nil
}

// printSteal prints the share of the host's CPU time stolen by the
// hypervisor during the measured run; spread.py reads this line.
func printSteal(share float64) {
	fmt.Printf("host steal: %.4f of CPU time went to other guests during the measured run\n", share)
}

// slowest describes the n slowest requests of an open-loop run, for the
// result record: what sits in the latency tail.
func slowest(sched []plan.DaemonRequest, outs []daemon.Outcome, n int) []string {
	idx := make([]int, len(outs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return outs[idx[a]].LatencyMS > outs[idx[b]].LatencyMS })
	var out []string
	for _, i := range idx[:min(n, len(idx))] {
		key := sched[i].Kind
		if sched[i].Kind == plan.KindAnalyze {
			key = sched[i].Items[0].Key()
		}
		out = append(out, fmt.Sprintf("#%d due %.2fs latency %.1fms lag %.1fms hits %d %s",
			i, sched[i].Due.Seconds(), outs[i].LatencyMS, outs[i].LagMS, outs[i].Hits, key))
	}
	return out
}

// timeline lists every request's due time (s), latency (ms) and lag
// (ms), rounded, for analysis of the run after the fact.
func timeline(sched []plan.DaemonRequest, outs []daemon.Outcome) [][3]float64 {
	round := func(x float64) float64 { return math.Round(x*1000) / 1000 }
	out := make([][3]float64, len(outs))
	for i, o := range outs {
		out[i] = [3]float64{round(sched[i].Due.Seconds()), round(o.LatencyMS), round(o.LagMS)}
	}
	return out
}
