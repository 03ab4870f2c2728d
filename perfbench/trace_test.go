package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

func TestSelfTimesSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "pool", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "cell", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "cell", Start: 30, End: 70},  // overlaps span 2
		{ID: 4, Parent: 1, Name: "cell", Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 2, Name: "inner", Start: 20, End: 25},
	}
	got := selfTimes(spans)
	want := []time.Duration{100 - 60 - 10, 40 - 5, 40, 30, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self = %d, want %d", i+1, got[i], want[i])
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"suss/internal/netsim.(*Simulator).Run":              "netsim.sched",
		"suss/internal/netsim.(*Link).Send":                  "netsim.link",
		"suss/internal/wire/simbackend.(*Conn).Send":         "wire.simbackend",
		"suss/internal/wire/rtclock.(*Reactor).Do":           "wire",
		"suss/internal/service/confhash.JobKey":              "confhash",
		"suss/internal/runner.Map[...].func1":                "runner",
		"suss/internal/chaos.Catalog":                        "other",
		"runtime.mallocgc":                                   "",
		"suss/perfbench.main":                                "",
		"suss/internal/experiments.Fig11FromResults.func2.1": "experiments",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestFoldProfileDecodesCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0
	for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
		x++
	}
	pprof.StopCPUProfile()
	folded, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for layer, n := range folded {
		if n < 0 {
			t.Errorf("layer %s has %d samples", layer, n)
		}
		total += n
	}
	if total == 0 || folded["other"] == 0 {
		t.Errorf("no samples folded (spin count %d): %v", x, folded)
	}
}
