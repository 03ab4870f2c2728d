// Command perfbench is the repository's end-to-end benchmark. It drives
// one workload per run through the public entry points of experiments,
// runner, workload and service, checks every output it produces, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer
// table) as the last line of standard output:
//
//	go build -o perfbench . && ./perfbench -workload fig11-sweep -seed 1 -seconds 10 -trace 0
//
// README.md in this directory explains the workloads, the metrics and
// which layer each workload loads or bypasses.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// workers is the pool width every workload uses: one per vCPU of the
// reference box, so the harness never oversubscribes it.
const workers = 2

const (
	setupReps = 15 // set-ups per run; setup_s is their median
	minRounds = 2  // timed rounds per phase, so repeats can be compared
)

// bench is one workload. measure calls prepare once, setup
// setupReps times (the last set-up is the one used), warmup once, then
// round until the phase's time is spent.
type bench interface {
	// tail is the latency percentile reported as op_tail_ms, fixed per
	// workload so it never shifts with the sample count.
	tail() float64
	prepare(tr *tracer) error
	setup(tr *tracer) error
	warmup(tr *tracer) error
	round(tr *tracer) roundStats
	close() error
}

// roundStats is what one timed round did.
type roundStats struct {
	flows  int           // simulated flows that completed
	busy   time.Duration // host time those flows took
	ops    []float64     // latency of each operation, ms
	counts workCounts    // exact work done in the round
	kernel time.Duration // calibration kernel time after the round
	rssMB  float64       // peak RSS during the round
}

// workCounts are the deterministic work counts of one round. They
// depend only on the workload and seed, so any drift is a change in
// behaviour, never noise.
type workCounts struct {
	Segments, Retrans, RTOs, Drops, CorePkts, SimRuns, Completed int64
}

func (c workCounts) String() string {
	return fmt.Sprintf("tcp.segments=%d tcp.retrans=%d tcp.rtos=%d netsim.drops=%d netsim.core_pkts=%d runner.sim_runs=%d flows.completed=%d",
		c.Segments, c.Retrans, c.RTOs, c.Drops, c.CorePkts, c.SimRuns, c.Completed)
}

// ledger counts attempted and failed operations and output checks.
type ledger struct {
	mu                sync.Mutex
	attempted, failed int64
	fails             []string
}

// op records one operation; a non-nil err marks it failed.
func (l *ledger) op(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	if err != nil {
		l.failed++
		if len(l.fails) < 20 {
			l.fails = append(l.fails, err.Error())
		}
	}
}

// check records one output check.
func (l *ledger) check(ok bool, format string, args ...any) {
	var err error
	if !ok {
		err = fmt.Errorf("check failed: "+format, args...)
	}
	l.op(err)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "fig11-sweep | fleet-population | sussd-mixed")
		seed    = flag.Int64("seed", 1, "workload seed; every input is generated from it")
		seconds = flag.Float64("seconds", 10, "measured time per run")
		traced  = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		workdir = flag.String("workdir", "", "scratch directory for cache files and span dumps (default: a new temp dir)")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced == 1, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool, workdir string) error {
	if workdir == "" {
		d, err := os.MkdirTemp("", "perfbench")
		if err != nil {
			return err
		}
		defer os.RemoveAll(d)
		workdir = d
	}
	led := &ledger{}
	var b bench
	switch name {
	case "fig11-sweep":
		b = newFig11Sweep(seed, led)
	case "fleet-population":
		b = newFleetPopulation(seed, led)
	case "sussd-mixed":
		b = newSussdMixed(seed, led, workdir)
	default:
		return fmt.Errorf("unknown workload %q (want fig11-sweep, fleet-population or sussd-mixed)", name)
	}
	res, err := measure(b, name, seed, time.Duration(seconds*float64(time.Second)), traced, workdir)
	if cerr := b.close(); cerr != nil {
		led.op(fmt.Errorf("close: %w", cerr))
	}
	if err != nil {
		return err
	}
	res.Attempted, res.Failed = led.attempted, led.failed
	res.Correct = led.failed == 0
	fmt.Printf("operations: attempted=%d failed=%d error_rate=%.6f\n", led.attempted, led.failed, float64(led.failed)/float64(max(led.attempted, 1)))
	for _, f := range led.fails {
		fmt.Println("  FAILED:", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errors.New("output checks failed")
	}
	return nil
}

// measure runs the workload's phases and returns its metrics.
func measure(b bench, name string, seed int64, phase time.Duration, traced bool, workdir string) (result, error) {
	res := result{Metrics: map[string]metric{}}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	if err := b.prepare(tr); err != nil {
		return res, fmt.Errorf("prepare: %w", err)
	}
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := b.setup(tr); err != nil {
			return res, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if err := b.warmup(tr); err != nil {
		return res, fmt.Errorf("warmup: %w", err)
	}
	fmt.Printf("workload %s seed %d: set-up %d× median %.6f s raw\n", name, seed, setupReps, quantile(setups, 0.5))

	if !traced {
		rounds := loop(b, phase, nil, true)
		e := endToEnd(rounds, b.tail())
		e.report(rounds)
		res.Metrics["setup_s"] = metric{quantile(setups, 0.5) / e.slow, "s"}
		res.Metrics["flows_per_s"] = metric{e.flowsPerS, "1/s"}
		res.Metrics["op_p50_ms"] = metric{e.p50, "ms"}
		res.Metrics["op_tail_ms"] = metric{e.tail, "ms"}
		res.Metrics["peak_rss_mb"] = metric{e.rssMB, "MB"}
		return res, nil
	}

	// Tracing overhead: an untraced half-length phase, then the traced
	// half the per-layer numbers come from. Neither runs the kernel,
	// whose forced GC and samples would skew the per-layer shares; both
	// report raw timings.
	plain := endToEnd(loop(b, phase/2, nil, false), b.tail())
	var prof bytes.Buffer
	m0 := readRuntimeMetrics()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return res, err
	}
	rounds := loop(b, phase/2, tr, false)
	pprof.StopCPUProfile()
	m1 := readRuntimeMetrics()
	e := endToEnd(rounds, b.tail())
	e.report(rounds)
	folded, err := foldProfile(prof.Bytes())
	if err != nil {
		return res, err
	}
	spans := tr.snapshot()
	if err := writeSpans(filepath.Join(workdir, fmt.Sprintf("%s-seed%d.spans.jsonl", name, seed)), spans); err != nil {
		return res, err
	}
	agg := aggregateSpans(spans)
	perLayer(res.Metrics, name, plain, e, rounds, folded, m0, m1, agg, b)
	fmt.Println("span table (set-up, warm-up and traced phase):")
	printSpanTable(os.Stdout, agg)
	printPerLayer(res.Metrics)
	return res, nil
}

// loop runs rounds until d has passed, and at least minRounds, with
// the calibration kernel after each when calibrated.
func loop(b bench, d time.Duration, tr *tracer, calibrated bool) []roundStats {
	var out []roundStats
	deadline := time.Now().Add(d)
	for len(out) < minRounds || time.Now().Before(deadline) {
		resetPeakRSS()
		r := b.round(tr)
		r.rssMB = peakRSSMB()
		if calibrated {
			r.kernel = calibrate()
		}
		out = append(out, r)
	}
	return out
}

// e2e holds one phase's end-to-end figures, scaled to the reference
// machine speed; raw* are the unscaled ones.
type e2e struct {
	flows                   int
	busy                    time.Duration
	flowsPerS, rawFlowsPerS float64
	p50, tail, tailQ        float64
	rawP50                  float64
	slow                    float64 // median kernel time ÷ kernelRef (> 1 on a slow machine); 1 uncalibrated
	rssMB                   float64
	nops                    int
}

// endToEnd reduces a phase's rounds. Throughput and peak RSS are the
// medians of the per-round figures: every round does identical work,
// so one round disturbed by another tenant moves them by at most one
// rank. The phase's median kernel time gives the machine's speed.
func endToEnd(rounds []roundStats, tailQ float64) e2e {
	var e e2e
	var ops, rates, rss, kernel []float64
	for _, r := range rounds {
		e.flows += r.flows
		e.busy += r.busy
		rates = append(rates, float64(r.flows)/r.busy.Seconds())
		ops = append(ops, r.ops...)
		rss = append(rss, r.rssMB)
		kernel = append(kernel, r.kernel.Seconds())
	}
	e.slow = 1
	if k := quantile(kernel, 0.5); k > 0 {
		e.slow = k / kernelRef.Seconds()
	}
	e.rawFlowsPerS, e.rawP50 = quantile(rates, 0.5), quantile(ops, 0.5)
	e.flowsPerS, e.p50, e.tail = e.rawFlowsPerS*e.slow, e.rawP50/e.slow, quantile(ops, tailQ)/e.slow
	e.tailQ, e.nops = tailQ, len(ops)
	e.rssMB = quantile(rss, 0.5)
	return e
}

func (e e2e) report(rounds []roundStats) {
	w := os.Stdout
	fmt.Fprintf(w, "rounds=%d flows=%d in %.3f s host time: flows_per_s=%.2f raw (median of rounds)", len(rounds), e.flows, e.busy.Seconds(), e.rawFlowsPerS)
	if rounds[0].kernel > 0 {
		fmt.Fprintf(w, ", calibration kernel %.2f ms (×%.3f) → %.2f scaled", e.slow*ms(kernelRef), e.slow, e.flowsPerS)
	}
	fmt.Fprintln(w)
	beyond := float64(e.nops) * (1 - e.tailQ)
	fmt.Fprintf(w, "op latency over %d ops: p50=%.4f ms (raw %.4f) p%g=%.4f ms (%.0f samples beyond)\n",
		e.nops, e.p50, e.rawP50, 100*e.tailQ, e.tail, beyond)
	fmt.Fprintf(w, "work per round: %s\n", rounds[0].counts)
	var busy []float64
	fmt.Fprintf(w, "host time / calibration kernel / peak RSS per round:")
	for _, r := range rounds {
		busy = append(busy, r.busy.Seconds())
		fmt.Fprintf(w, " %.3fs/%.1fms/%.1fMB", r.busy.Seconds(), ms(r.kernel), r.rssMB)
	}
	fmt.Fprintf(w, "\nmedian host time per round: %.4f s raw\n", quantile(busy, 0.5))
}

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// resetPeakRSS restarts the kernel's peak-RSS mark (VmHWM), so the next
// peakRSSMB covers one round. Where /proc/self/clear_refs is not
// writable the mark keeps the process peak, which only overstates.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB reads VmHWM, the peak RSS since the last reset.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return lifetimeRSSMB()
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
				return kb / 1024
			}
		}
	}
	return lifetimeRSSMB()
}

// lifetimeRSSMB is the process's peak RSS from getrusage (covering
// only the time since the last reset where VmHWM can be reset).
func lifetimeRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
}

func readRuntimeMetrics() map[string]float64 {
	samples := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	out := map[string]float64{}
	for _, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindFloat64:
			out[s.Name] = s.Value.Float64()
		case metrics.KindUint64:
			out[s.Name] = float64(s.Value.Uint64())
		}
	}
	return out
}

// perLayer fills the per-layer metrics of a traced run.
func perLayer(m map[string]metric, name string, plain, traced e2e, rounds []roundStats, folded map[string]int64,
	m0, m1 map[string]float64, spans map[string]*spanStat, b bench) {
	var samples int64
	for _, n := range folded {
		samples += n
	}
	for _, l := range profileLayers {
		m[l+".self_frac"] = metric{float64(folded[l]) / float64(max(samples, 1)), "frac"}
	}
	m["trace.profile_samples"] = metric{float64(samples), "count"}

	d := func(k string) float64 { return m1[k] - m0[k] }
	busyCPU := d("/cpu/classes/total:cpu-seconds") - d("/cpu/classes/idle:cpu-seconds")
	m["gc.cpu_frac"] = metric{d("/cpu/classes/gc/total:cpu-seconds") / busyCPU, "frac"}
	m["gc.alloc_mb_per_flow"] = metric{d("/gc/heap/allocs:bytes") / (1 << 20) / float64(max(traced.flows, 1)), "MB/flow"}
	m["gc.cycles_per_round"] = metric{d("/gc/cycles/total:gc-cycles") / float64(len(rounds)), "count"}

	durs := func(n string) []float64 {
		if s := spans[n]; s != nil {
			return s.durs
		}
		return nil
	}
	cells := append(durs("runner.Download"), durs("runner.RunFleetShard")...)
	m["runner.cell_p50_ms"] = metric{quantile(cells, 0.5), "ms"}
	m["runner.cell_tail_ms"] = metric{quantile(cells, 0.99), "ms"}
	var cellBusy, poolWall time.Duration
	for _, n := range []string{"runner.Download", "runner.RunFleetShard"} {
		if s := spans[n]; s != nil {
			cellBusy += s.Total
		}
	}
	if s := spans["runner.Map"]; s != nil {
		poolWall = s.Total
	}
	m["runner.idle_frac"] = metric{1 - cellBusy.Seconds()/(workers*poolWall.Seconds()), "frac"}
	m["experiments.plan_ms"] = metric{quantile(durs("experiments.plan"), 0.5), "ms"}
	m["experiments.fold_ms"] = metric{quantile(durs("experiments.fold"), 0.5), "ms"}

	var genFlows int64
	var genTime time.Duration
	if s := spans["workload.PopulationSpec.Shard"]; s != nil {
		genTime = s.Total
	}
	if g, ok := b.(interface{ generatedFlows() int64 }); ok {
		genFlows = g.generatedFlows()
	}
	genRate := 0.0
	if genTime > 0 {
		genRate = float64(genFlows) / genTime.Seconds()
	}
	m["workload.gen_flows_per_s"] = metric{genRate, "1/s"}

	sv := serviceLayer{}
	if s, ok := b.(interface{ serviceLayer() serviceLayer }); ok {
		sv = s.serviceLayer()
	}
	share := func(n string) float64 {
		req := spans["sussd.warm_request"]
		if req == nil || req.Total == 0 || spans[n] == nil {
			return 0
		}
		return spans[n].Total.Seconds() / req.Total.Seconds()
	}
	m["service.submit_share"] = metric{share("service.warm_submit"), "frac"}
	m["service.result_share"] = metric{share("service.warm_result"), "frac"}
	m["service.hit_ratio"] = metric{sv.hitRatio, "frac"}
	m["service.log_bytes_per_cell"] = metric{sv.logBytesPerCell, "B/cell"}

	c := rounds[0].counts
	for k, v := range map[string]int64{
		"tcp.segments": c.Segments, "tcp.retrans": c.Retrans, "tcp.rtos": c.RTOs, "netsim.drops": c.Drops,
		"netsim.core_pkts": c.CorePkts, "runner.sim_runs": c.SimRuns, "flows.completed": c.Completed,
	} {
		m[k] = metric{float64(v), "count"}
	}

	// Overhead of tracing on the workload's headline figure: throughput
	// for the simulation workloads, warm latency for the service.
	over := plain.rawFlowsPerS/traced.rawFlowsPerS - 1
	if name == "sussd-mixed" {
		over = traced.rawP50/plain.rawP50 - 1
	}
	m["trace.overhead_frac"] = metric{over, "frac"}
	fmt.Printf("tracing overhead: flows_per_s untraced=%.2f traced=%.2f, op_p50_ms untraced=%.4f traced=%.4f\n",
		plain.rawFlowsPerS, traced.rawFlowsPerS, plain.rawP50, traced.rawP50)
}

// serviceLayer carries the service-side per-layer figures.
type serviceLayer struct {
	hitRatio, logBytesPerCell float64
}

func printPerLayer(m map[string]metric) {
	w := os.Stdout
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintln(w, "per-layer metrics:")
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}
