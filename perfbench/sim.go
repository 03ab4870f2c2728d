package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"time"

	"suss/internal/experiments"
	"suss/internal/runner"
	"suss/internal/scenarios"
)

// fig11Golden is the sha256 of the Fig. 11 CSV at (GoogleTokyo,
// DefaultSizes, iters=3, seed=1), the output every change must keep.
const fig11Golden = "b43ce3ce8986e0f06395f2ef90632bcee2ca4345666faf25131c3958775b1b37"

// fig11Iters is the sweep's iterations per cell: 4 links × 7 sizes ×
// 3 algorithms × 3 = 252 single-flow downloads per round.
const fig11Iters = 3

// smallFlowMax is the paper's small-flow cut-off for the Fig. 12 claim.
const smallFlowMax = 2 << 20

// repeatCheck holds the first round's output and work counts; every
// later round with the same seed must reproduce both exactly.
type repeatCheck struct {
	set    bool
	csv    [32]byte
	counts workCounts
}

func (r *repeatCheck) same(led *ledger, what string, csv []byte, c workCounts) {
	sum := sha256.Sum256(csv)
	if !r.set {
		r.set, r.csv, r.counts = true, sum, c
		return
	}
	led.check(sum == r.csv, "%s CSV differs from the first round's", what)
	led.check(c == r.counts, "%s work counts drifted: %s, first round %s", what, c, r.counts)
}

// downloadErr classifies a download exactly as runner.Run does.
func downloadErr(j runner.Job, r runner.DownloadResult) error {
	switch {
	case r.Stall != nil:
		return fmt.Errorf("%s size=%d iter=%d: %w", j.Algo, j.Size, j.Iter, r.Stall)
	case r.FlowErr != nil:
		return fmt.Errorf("%s size=%d iter=%d: %w", j.Algo, j.Size, j.Iter, r.FlowErr)
	case !r.Completed:
		return fmt.Errorf("%s size=%d iter=%d: %w", j.Algo, j.Size, j.Iter, runner.ErrIncomplete)
	}
	return nil
}

type fig11Out struct {
	csv    []byte
	fig    experiments.Fig11Result
	cellMs []float64
	wall   time.Duration
	counts workCounts
}

// sweepFig11 runs a Fig. 11 job matrix the way runner.Run does (runner.Map
// over runner.Download on the worker pool), timing each cell, then
// folds it with Fig11FromResults and WriteCSV.
func sweepFig11(jobs []runner.Job, iters int, tr *tracer, led *ledger, parent int32) fig11Out {
	t0 := time.Now()
	sims0 := runner.SimRuns()
	lat := make([]float64, len(jobs))
	pool := tr.start("runner.Map", parent, "fig11")
	outs := runner.Map(context.Background(), jobs, func(_ context.Context, i int, j runner.Job) (runner.Result, error) {
		sp := tr.start("runner.Download", pool, "cell"+strconv.Itoa(i))
		c0 := time.Now()
		r := runner.Download(j)
		lat[i] = ms(time.Since(c0))
		tr.end(sp)
		return runner.Result{Job: j, DownloadResult: r, Err: downloadErr(j, r)}, nil
	}, runner.Options{Workers: workers})
	tr.end(pool)

	var c workCounts
	results := make([]runner.Result, len(jobs))
	for i, o := range outs {
		results[i] = o.Value
		if o.Err != nil { // a panic captured by the pool
			results[i] = runner.Result{Job: jobs[i], Err: o.Err}
		}
		led.op(results[i].Err)
		r := results[i].DownloadResult
		c.Segments += int64(r.Segments)
		c.Retrans += int64(r.Retrans)
		c.RTOs += int64(r.RTOs)
		c.Drops += int64(r.Drops)
		if r.Completed {
			c.Completed++
		}
	}
	c.SimRuns = runner.SimRuns() - sims0

	fold := tr.start("experiments.fold", parent, "fig11")
	fig := experiments.Fig11FromResults(scenarios.GoogleTokyo, experiments.DefaultSizes, iters, results, false)
	var buf bytes.Buffer
	_ = fig.WriteCSV(&buf) // a bytes.Buffer write cannot fail
	tr.end(fold)
	return fig11Out{csv: buf.Bytes(), fig: fig, cellMs: lat, wall: time.Since(t0), counts: c}
}

// checkFig11 runs the output checks every Fig. 11 sweep must pass.
func checkFig11(led *ledger, what string, out fig11Out) {
	led.check(out.fig.Incomplete == 0, "%s: %d incomplete cell(s)", what, out.fig.Incomplete)
	imp := out.fig.SmallFlowImprovement(smallFlowMax)
	led.check(imp > 0, "%s: SmallFlowImprovement(2MB) = %.4f, want > 0", what, imp)
}

func fig11Plan(tr *tracer, seed int64) []runner.Job {
	sp := tr.start("experiments.plan", 0, "fig11")
	defer tr.end(sp)
	return experiments.Fig11Jobs(scenarios.GoogleTokyo, experiments.DefaultSizes, fig11Iters, seed)
}

// fig11Sweep is the fig11-sweep workload: the Fig. 11 matrix at the
// workload seed, swept repeatedly on the worker pool.
type fig11Sweep struct {
	seed int64
	led  *ledger
	jobs []runner.Job
	ref  repeatCheck
}

func newFig11Sweep(seed int64, led *ledger) *fig11Sweep { return &fig11Sweep{seed: seed, led: led} }

func (f *fig11Sweep) tail() float64          { return 0.99 }
func (f *fig11Sweep) prepare(*tracer) error  { return nil }
func (f *fig11Sweep) close() error           { return nil }
func (f *fig11Sweep) setup(tr *tracer) error { f.jobs = fig11Plan(tr, f.seed); return nil }

// warmup sweeps the golden matrix (seed 1) untimed: it fills the heap
// to its working size and pins the CSV every change must reproduce.
func (f *fig11Sweep) warmup(tr *tracer) error {
	out := sweepFig11(experiments.Fig11Jobs(scenarios.GoogleTokyo, experiments.DefaultSizes, 3, 1), 3, tr, f.led, 0)
	sum := sha256.Sum256(out.csv)
	f.led.check(hex.EncodeToString(sum[:]) == fig11Golden, "golden fig11 CSV sha256 %x, want %s", sum, fig11Golden)
	checkFig11(f.led, "golden fig11", out)
	return nil
}

func (f *fig11Sweep) round(tr *tracer) roundStats {
	rs := tr.start("round", 0, "")
	out := sweepFig11(f.jobs, fig11Iters, tr, f.led, rs)
	tr.end(rs)
	checkFig11(f.led, "fig11 sweep", out)
	f.ref.same(f.led, "fig11 sweep", out.csv, out.counts)
	return roundStats{flows: int(out.counts.Completed), busy: out.wall, ops: out.cellMs, counts: out.counts}
}

type fleetOut struct {
	csv     []byte
	res     experiments.FleetResult
	shardMs []float64
	wall    time.Duration
	counts  workCounts
}

// fleetPlan builds the fleet comparison's shard jobs and generates
// every shard's population, timing each PopulationSpec.Shard call. It
// returns the number of flows generated.
func fleetPlan(tr *tracer, seed int64) (experiments.FleetConfig, [2]runner.FleetJob, int64) {
	sp := tr.start("experiments.plan", 0, "fleet")
	fc := experiments.DefaultFleetConfig(seed).Normalized()
	jobs := experiments.FleetJobs(fc)
	pop := fc.Population()
	tr.end(sp)
	var n int64
	for s := 0; s < fc.Shards; s++ {
		g := tr.start("workload.PopulationSpec.Shard", 0, "shard"+strconv.Itoa(s))
		n += int64(len(pop.Shard(s, fc.Shards)))
		tr.end(g)
	}
	return fc, jobs, n
}

// sweepFleet runs every (variant, shard) cell of the fleet comparison
// with runner.RunFleetShard on the worker pool, then folds them with
// FleetFromShards and WriteCSV.
func sweepFleet(fc experiments.FleetConfig, jobs [2]runner.FleetJob, tr *tracer, led *ledger, parent int32) fleetOut {
	t0 := time.Now()
	sims0 := runner.SimRuns()
	n := fc.Shards
	cells := make([]int, 2*n)
	for i := range cells {
		cells[i] = i
	}
	lat := make([]float64, len(cells))
	pool := tr.start("runner.Map", parent, "fleet")
	outs := runner.Map(context.Background(), cells, func(_ context.Context, _ int, c int) (runner.ShardResult, error) {
		sj := jobs[c/n]
		sj.Shard = c % n
		sp := tr.start("runner.RunFleetShard", pool, fmt.Sprintf("v%d/shard%d", c/n, c%n))
		c0 := time.Now()
		r := runner.RunFleetShard(sj)
		lat[c] = ms(time.Since(c0))
		tr.end(sp)
		switch {
		case r.Err != nil:
			return r, r.Err
		case r.Stall != nil:
			return r, r.Stall
		}
		return r, nil
	}, runner.Options{Workers: workers})
	tr.end(pool)

	var c workCounts
	var byVariant [2][]runner.FleetResult
	for i, o := range outs {
		led.op(o.Err)
		byVariant[i/n] = append(byVariant[i/n], runner.FleetResult{ShardResult: o.Value, Err: o.Err})
		r := o.Value
		for _, f := range r.Flows {
			c.Retrans += int64(f.Retrans)
			c.RTOs += int64(f.RTOs)
		}
		c.Drops += int64(r.TotalDataDrops)
		c.CorePkts += int64(r.Core.DeliveredPackets)
		c.Completed += int64(r.Completed())
	}
	c.SimRuns = runner.SimRuns() - sims0

	fold := tr.start("experiments.fold", parent, "fleet")
	res := experiments.FleetFromShards(fc, byVariant, false)
	var buf bytes.Buffer
	_ = res.WriteCSV(&buf) // a bytes.Buffer write cannot fail
	tr.end(fold)
	return fleetOut{csv: buf.Bytes(), res: res, shardMs: lat, wall: time.Since(t0), counts: c}
}

// checkFleet runs the output checks every fleet comparison must pass.
func checkFleet(led *ledger, what string, out fleetOut) {
	r := out.res
	led.check(r.Incomplete == [2]int{}, "%s: incomplete flows off=%d on=%d", what, r.Incomplete[0], r.Incomplete[1])
	led.check(len(r.Errs) == 0, "%s: %d shard error(s)", what, len(r.Errs))
	led.check(r.SmallImprovement > 0, "%s: small-flow mean-FCT improvement %.4f, want > 0", what, r.SmallImprovement)
}

// fleetPopulation is the fleet-population workload: the default 10k-flow
// fleet, SUSS off and on, swept repeatedly.
type fleetPopulation struct {
	seed     int64
	led      *ledger
	fc       experiments.FleetConfig
	jobs     [2]runner.FleetJob
	genFlows int64
	ref      repeatCheck
}

func newFleetPopulation(seed int64, led *ledger) *fleetPopulation {
	return &fleetPopulation{seed: seed, led: led}
}

func (f *fleetPopulation) tail() float64           { return 0.75 }
func (f *fleetPopulation) prepare(*tracer) error   { return nil }
func (f *fleetPopulation) close() error            { return nil }
func (f *fleetPopulation) generatedFlows() int64   { return f.genFlows }
func (f *fleetPopulation) warmup(tr *tracer) error { f.round(tr); return nil }

func (f *fleetPopulation) setup(tr *tracer) error {
	var n int64
	f.fc, f.jobs, n = fleetPlan(tr, f.seed)
	f.led.check(n == int64(f.fc.Flows), "population generated %d flows, want %d", n, f.fc.Flows)
	f.genFlows += n
	return nil
}

func (f *fleetPopulation) round(tr *tracer) roundStats {
	rs := tr.start("round", 0, "")
	out := sweepFleet(f.fc, f.jobs, tr, f.led, rs)
	tr.end(rs)
	checkFleet(f.led, "fleet", out)
	f.ref.same(f.led, "fleet", out.csv, out.counts)
	return roundStats{flows: int(out.counts.Completed), busy: out.wall, ops: out.shardMs, counts: out.counts}
}
