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
