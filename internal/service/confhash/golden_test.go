package confhash

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"
	"time"

	"suss/internal/core"
	"suss/internal/experiments"
	"suss/internal/runner"
	"suss/internal/scenarios"
	"suss/internal/tcp"
	"suss/internal/workload"
)

// The exact keys a persisted cache file is indexed by. A -cachefile
// written by an earlier daemon only keeps hitting if these strings never
// move, so any change to the canonical rendering or to normalization
// must fail here before it silently turns every stored cell into a miss.
// Update a value only together with a deliberate cache-format break:
// bump the service's cache magic and add the new (magic, sweep key
// digest) pair to the service package's cacheFormats.

func goldenFig11Jobs() []runner.Job {
	return experiments.Fig11Jobs(scenarios.GoogleTokyo, experiments.DefaultSizes, 3, 1)
}

func TestJobKeyGolden(t *testing.T) {
	jobs := goldenFig11Jobs()
	// Fig11Jobs lays out algos × iters innermost: BBR, Suss, Cubic.
	bbr, suss, cubic := jobs[0], jobs[3], jobs[6]

	explicitOpt := suss
	opt := core.DefaultOptions()
	opt.Kmax = 3
	explicitOpt.SussOpt = &opt

	transport := cubic
	cfg := tcp.DefaultConfig()
	cfg.FRTO = true
	transport.Transport = &cfg

	last := jobs[len(jobs)-1]
	last.Horizon = time.Minute
	last.Observe = true

	cases := []struct {
		name string
		job  runner.Job
		want string
	}{
		{"fig11/bbr", bbr, "job:2348ecc3a01a2eb4c8c716681eb39dd5ffb4074728a5cfbf9ac0cb25695951b5"},
		{"fig11/suss", suss, "job:1ca13a1e32b4996768f28292e62e6bf0e15e45c6cbdb9bff29c7a5fd052d067f"},
		{"fig11/cubic", cubic, "job:53311185932f0706277d4d8520cd585b56ff936eacf10cefa8044f18a4502bbc"},
		{"fig11/suss-explicit-opt", explicitOpt, "job:501470cda63328f41966078b3463822de0e11ed42f809f442df2d36ffddcee06"},
		{"fig11/cubic-frto-transport", transport, "job:46f7b155f18798b8cfa0933bf867268ee358695b75c584911956e496c4682f86"},
		{"fig11/last-cell-observed", last, "job:ed5f967deacb53c44b75ab100f60306349e013d153c481066e45091c1a405fb9"},
	}
	for _, c := range cases {
		if got := mustJobKey(t, c.job); got != c.want {
			t.Errorf("%s: key %s, want %s", c.name, got, c.want)
		}
	}
}

func TestFleetKeyGolden(t *testing.T) {
	jobs := experiments.FleetJobs(experiments.DefaultFleetConfig(1))
	smoke := jobs[1] // SUSS on, SmokeMix: Lognormal and BoundedPareto sizes
	smoke.Shard = 2

	lognormal := jobs[0]
	lognormal.Pop.Mix = nil // normalizes to DefaultMix (Mixture sizes)
	lognormal.Pop.Arrivals = workload.LognormalArrivals{Mu: -3, Sigma: 0.5, MaxGap: time.Second}

	cases := []struct {
		name string
		job  runner.FleetJob
		want string
	}{
		{"fleet/smoke-suss-shard2", smoke, "fleet:df254678645b3504938787d51b866b82729d6016432921bfcbc38d39539423e4"},
		{"fleet/default-mix-lognormal-arrivals", lognormal, "fleet:1b80f53c2c4cd261dd60be085b46404a98c0dfbbb1866f87c4143ba94c29ce30"},
	}
	for _, c := range cases {
		if got := mustFleetKey(t, c.job); got != c.want {
			t.Errorf("%s: key %s, want %s", c.name, got, c.want)
		}
	}
}

// The rendering itself, for the value kinds config structs do not
// exercise today: maps (sorted by rendered key), nested pointers,
// interfaces holding pointers, arrays, unsigned and float32 values,
// quoted strings and nil slices.
func TestCanonicalGolden(t *testing.T) {
	type leaf struct {
		Z float32
		A uint16
	}
	x := 7
	v := struct {
		M     map[string]float64
		Keyed map[int]*leaf
		Any   any
		Arr   [2]int8
		S     []string
		Nil   []int
		P     **int
		F     func()
		Dur   time.Duration
		B     bool
		lower int
	}{
		M:     map[string]float64{"b": 0.1, "a": 1e21, "c": -0},
		Keyed: map[int]*leaf{10: {Z: 0.3, A: 2}, 9: nil, -1: {}},
		Any:   &leaf{Z: 1.5},
		Arr:   [2]int8{-1, 1},
		S:     []string{"x\"y", "\n"},
		P:     func() **int { p := &x; return &p }(),
		Dur:   1500 * time.Millisecond,
		B:     true,
		lower: 99,
	}
	got, err := Canonical(v)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{Any:<*confhash.leaf>{A:0,Z:1.5},Arr:[-1,1],B:true,Dur:1500000000,F:null,` +
		`Keyed:{-1:{A:0,Z:0},10:{A:2,Z:0.30000001192092896},9:null},M:{"a":1e+21,"b":0.1,"c":0},` +
		`Nil:[],P:7,S:["x\"y","\n"]}`
	if got != want {
		t.Errorf("canonical rendering moved:\n got %s\nwant %s", got, want)
	}
}

// Every cell key the service derives for three fig11 seeds and three
// fleet seeds, folded into one digest: the per-case pins above say
// which case moved, this one says whether anything did.
func TestSweepKeysDigestGolden(t *testing.T) {
	h := sha256.New()
	for seed := int64(1); seed <= 3; seed++ {
		for _, j := range experiments.Fig11Jobs(scenarios.GoogleTokyo, experiments.DefaultSizes, 3, seed) {
			io.WriteString(h, mustJobKey(t, j)+"\n")
		}
		fc := experiments.DefaultFleetConfig(seed)
		for _, j := range experiments.FleetJobs(fc) {
			for shard := 0; shard < fc.Shards; shard++ {
				j.Shard = shard
				io.WriteString(h, mustFleetKey(t, j)+"\n")
			}
		}
	}
	const want = "b5416e958a485f301685c6ec6d7ef68cacb06cb273405b925d6f921d9bdb31a2"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("sweep key digest %s, want %s", got, want)
	}
}

// Values without a canonical form error with the path to the offending
// field, and the message is part of the contract callers see.
func TestCanonicalErrorGolden(t *testing.T) {
	type inner struct{ C chan int }
	cases := []struct {
		v    any
		want string
	}{
		{struct{ F func() }{F: func() {}}, "struct { F func() }.F: func value has no canonical form"},
		{struct{ In inner }{In: inner{C: make(chan int)}}, "struct { In confhash.inner }.In: confhash.inner.C: chan value has no canonical form"},
		{[]any{1, func() {}}, "func value has no canonical form"},
		{map[string]any{"k": func() {}}, "func value has no canonical form"},
	}
	for i, c := range cases {
		_, err := Canonical(c.v)
		got := "<nil>"
		if err != nil {
			got = err.Error()
		}
		if got != c.want {
			t.Errorf("case %d: error %q, want %q", i, got, c.want)
		}
	}
}
