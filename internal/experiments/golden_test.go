package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"suss/internal/runner"
	"suss/internal/scenarios"
)

// fig11GoldenSHA256 is the sha256 of the Fig. 11 CSV at (GoogleTokyo,
// DefaultSizes, iters=3, seed=1): the reference output a simulator
// change must reproduce unless it deliberately changes behaviour.
const fig11GoldenSHA256 = "b43ce3ce8986e0f06395f2ef90632bcee2ca4345666faf25131c3958775b1b37"

// TestFig11GoldenCSV runs the golden sweep the way the experiment
// service does — declared jobs, the worker pool, the shared fold — and
// pins the CSV bytes. Every download must also arrive with no frame
// lost to the strict wire decode: the simulator backend never corrupts
// frames on a clean path, so a decode drop is a codec bug.
func TestFig11GoldenCSV(t *testing.T) {
	jobs := Fig11Jobs(scenarios.GoogleTokyo, DefaultSizes, 3, 1)
	out := runner.Run(context.Background(), jobs, runner.Options{})
	for _, r := range out {
		if r.DecodeDrops != 0 {
			t.Errorf("%s/%v size %d iter %d: %d frame(s) dropped by the wire decode",
				r.Job.Scenario.Name(), r.Job.Algo, r.Job.Size, r.Job.Iter, r.DecodeDrops)
		}
	}
	fig := Fig11FromResults(scenarios.GoogleTokyo, DefaultSizes, 3, out, false)
	var buf bytes.Buffer
	if err := fig.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != fig11GoldenSHA256 {
		t.Errorf("fig11 CSV sha256 %s, want %s", got, fig11GoldenSHA256)
	}
}

// fleetGoldenSHA256 is the sha256 of the smoke-tier fleet CSV
// (DefaultFleetConfig(1)): 10 000 flows over four shards, SUSS off and
// on. It must not move with the worker count or with any change to the
// simulator's dispatch order that claims to preserve behaviour.
const fleetGoldenSHA256 = "bf9d39f92db6b2a6102c020e158c3d324b8380e963ca33ac37ba2aada3a3988a"

// TestFleetGoldenCSV runs the smoke-tier fleet the way RunFleet does —
// both variants' shard jobs on the worker pool, merged by
// FleetFromShards — and pins the CSV bytes at one and two workers. As
// in the Fig. 11 golden, no shard may lose a frame to the wire decode.
func TestFleetGoldenCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-flow fleet")
	}
	fc := DefaultFleetConfig(1).Normalized()
	for _, workers := range []int{1, 2} {
		jobs := FleetJobs(fc)
		var shards [2][]runner.FleetResult
		for v := range jobs {
			shards[v] = runner.RunFleet(context.Background(), jobs[v], runner.Options{Workers: workers})
			for _, r := range shards[v] {
				if r.Err != nil {
					t.Fatalf("workers=%d %v shard %d: %v", workers, jobs[v].Algo, r.Shard, r.Err)
				}
				if r.DecodeDrops != 0 {
					t.Errorf("workers=%d %v shard %d: %d frame(s) dropped by the wire decode",
						workers, jobs[v].Algo, r.Shard, r.DecodeDrops)
				}
			}
		}
		var buf bytes.Buffer
		if err := FleetFromShards(fc, shards, false).WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != fleetGoldenSHA256 {
			t.Errorf("workers=%d: fleet CSV sha256 %s, want %s", workers, got, fleetGoldenSHA256)
		}
	}
}
