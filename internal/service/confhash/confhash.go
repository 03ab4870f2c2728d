// Package confhash computes canonical, content-addressed keys for
// experiment job configurations. The experiment service caches results
// under these keys, so the contract is semantic identity: two configs
// that would produce byte-identical simulation results must hash
// identically, and any config difference that could change a result
// must change the hash.
//
// Two mechanisms deliver that:
//
//   - Canonicalization: a config is rendered into a deterministic
//     textual form by reflection — struct fields sorted by name (the
//     order is planned once per type), maps sorted by key, pointers
//     dereferenced (nil renders as null), interface values tagged with
//     their concrete type, floats in shortest round-trip form. The
//     rendering depends only on field names and values, never on
//     declaration order or on how the caller spelled the literal.
//
//   - Normalization: before hashing, every defaulted field is replaced
//     by the value the runner would actually use (zero Horizon becomes
//     runner.DefaultHorizon, a nil Transport becomes tcp.DefaultConfig,
//     an empty population mix becomes workload.DefaultMix, …), so a
//     config relying on defaults and one spelling them out are the same
//     key. Execution-only knobs that the determinism contract proves
//     cannot change results — the worker pool, the watchdog — are
//     excluded.
//
// Configurations whose outcome is not a pure function of the config are
// rejected rather than mis-cached: a non-nil Impair hook (arbitrary
// code) and the wall-clock "pipe" backend are not hashable.
package confhash

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"sync"

	"suss/internal/core"
	"suss/internal/runner"
	"suss/internal/tcp"
	"suss/internal/workload"
)

// Canonical renders v into the deterministic textual form described in
// the package comment. It errors on values that cannot be canonically
// rendered: non-nil funcs, channels, unsafe pointers.
func Canonical(v any) (s string, err error) {
	err = canonical(v, func(b []byte) { s = string(b) })
	return s, err
}

// Sum returns the hex SHA-256 of Canonical(v).
func Sum(v any) (string, error) { return sum("", v) }

// sum returns prefix followed by the hex SHA-256 of Canonical(v),
// hashing the canonical bytes in place and building the key in one
// allocation.
func sum(prefix string, v any) (key string, err error) {
	err = canonical(v, func(b []byte) {
		h := sha256.Sum256(b)
		var buf [16 + 2*sha256.Size]byte
		key = string(hex.AppendEncode(append(buf[:0], prefix...), h[:]))
	})
	return key, err
}

// bufPool recycles render buffers across keys; a config renders to a
// few kilobytes at most, so a pooled buffer stops growing after the
// first few calls.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 2048); return &b }}

// canonical renders v into a pooled buffer and hands the bytes to use,
// which must not retain them.
func canonical(v any, use func([]byte)) error {
	bp := bufPool.Get().(*[]byte)
	defer bufPool.Put(bp)
	b, err := appendValue((*bp)[:0], reflect.ValueOf(v))
	*bp = b
	if err != nil {
		return err
	}
	use(b)
	return nil
}

// planField is one exported struct field in rendering order, with the
// text that precedes its value ("Name:" for the first field, ",Name:"
// after).
type planField struct {
	index  int
	name   string
	prefix string
}

var plans sync.Map // reflect.Type → []planField

// planOf returns t's exported fields sorted by name, computed once per
// struct type.
func planOf(t reflect.Type) []planField {
	if p, ok := plans.Load(t); ok {
		return p.([]planField)
	}
	var fs []planField
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.PkgPath != "" { // unexported: not part of a config's identity
			continue
		}
		fs = append(fs, planField{index: i, name: f.Name})
	}
	sort.Slice(fs, func(i, j int) bool { return fs[i].name < fs[j].name })
	for i := range fs {
		fs[i].prefix = "," + fs[i].name + ":"
		if i == 0 {
			fs[i].prefix = fs[i].prefix[1:]
		}
	}
	p, _ := plans.LoadOrStore(t, fs)
	return p.([]planField)
}

func appendValue(b []byte, v reflect.Value) ([]byte, error) {
	if !v.IsValid() {
		return append(b, "null"...), nil
	}
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return append(b, "null"...), nil
		}
		return appendValue(b, v.Elem())
	case reflect.Interface:
		if v.IsNil() {
			return append(b, "null"...), nil
		}
		// The concrete type is part of the identity: two arrival
		// processes with coincidentally equal field renderings must not
		// collide.
		b = append(b, '<')
		b = append(b, v.Elem().Type().String()...)
		b = append(b, '>')
		return appendValue(b, v.Elem())
	case reflect.Struct:
		b = append(b, '{')
		for _, f := range planOf(v.Type()) {
			b = append(b, f.prefix...)
			var err error
			if b, err = appendValue(b, v.Field(f.index)); err != nil {
				return b, fmt.Errorf("%s.%s: %w", v.Type(), f.name, err)
			}
		}
		return append(b, '}'), nil
	case reflect.Map:
		// Entries sort by rendered key. Configs rarely hold maps, so
		// each entry simply renders into its own buffer.
		type kv struct{ k, val []byte }
		ents := make([]kv, 0, v.Len())
		for it := v.MapRange(); it.Next(); {
			k, err := appendValue(nil, it.Key())
			if err != nil {
				return b, err
			}
			val, err := appendValue(nil, it.Value())
			if err != nil {
				return b, err
			}
			ents = append(ents, kv{k, val})
		}
		sort.Slice(ents, func(i, j int) bool { return bytes.Compare(ents[i].k, ents[j].k) < 0 })
		b = append(b, '{')
		for i, e := range ents {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, e.k...)
			b = append(b, ':')
			b = append(b, e.val...)
		}
		return append(b, '}'), nil
	case reflect.Slice, reflect.Array:
		// A nil slice and an empty one render identically: both mean
		// "nothing here", and normalization decides what that defaults to.
		b = append(b, '[')
		for i := 0; i < v.Len(); i++ {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendValue(b, v.Index(i)); err != nil {
				return b, err
			}
		}
		return append(b, ']'), nil
	case reflect.String:
		return strconv.AppendQuote(b, v.String()), nil
	case reflect.Bool:
		return strconv.AppendBool(b, v.Bool()), nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return strconv.AppendInt(b, v.Int(), 10), nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return strconv.AppendUint(b, v.Uint(), 10), nil
	case reflect.Float32, reflect.Float64:
		// Shortest round-trip form: exact, platform-independent.
		return strconv.AppendFloat(b, v.Float(), 'g', -1, 64), nil
	case reflect.Func:
		if v.IsNil() {
			return append(b, "null"...), nil
		}
		return b, errors.New("func value has no canonical form")
	default:
		return b, fmt.Errorf("%s value has no canonical form", v.Kind())
	}
}

// JobKey returns the cache key of a single-download job. The job is
// normalized first (see NormalizeJob); jobs whose outcome is not a pure
// function of the config error instead of producing a key.
func JobKey(j runner.Job) (string, error) {
	n, err := NormalizeJob(j)
	if err != nil {
		return "", err
	}
	return sum("job:", n)
}

// FleetKey returns the cache key of one fleet shard job.
func FleetKey(j runner.FleetJob) (string, error) {
	n, err := NormalizeFleetJob(j)
	if err != nil {
		return "", err
	}
	return sum("fleet:", n)
}

// NormalizeJob maps a download job onto its canonical representative:
// every field the runner would default is filled with that default, and
// execution knobs that provably cannot change the result are cleared.
//
//   - Backend "" becomes "sim"; any other backend ("pipe") measures
//     wall clock and is rejected.
//   - Horizon 0 becomes runner.DefaultHorizon.
//   - A nil Transport becomes tcp.DefaultConfig.
//   - SussOpt: nil becomes core.DefaultOptions when Algo is Suss (the
//     runner's controller default), and is cleared entirely for every
//     other algorithm, which ignores it.
//   - A positive WallLimit is folded into Observe (a wall-limited job
//     runs with the flight recorder attached) and then cleared: the
//     watchdog only matters on stalled runs, which are never cached.
//   - A non-nil Impair hook is arbitrary code and rejects the job.
func NormalizeJob(j runner.Job) (runner.Job, error) {
	if j.Impair != nil {
		return j, errors.New("confhash: job with an Impair hook is not cacheable")
	}
	switch j.Backend {
	case "":
		j.Backend = "sim"
	case "sim":
	default:
		return j, fmt.Errorf("confhash: backend %q measures wall clock and is not cacheable", j.Backend)
	}
	if j.Horizon <= 0 {
		j.Horizon = runner.DefaultHorizon
	}
	if j.Transport == nil {
		cfg := tcp.DefaultConfig()
		j.Transport = &cfg
	}
	if j.Algo == runner.Suss {
		if j.SussOpt == nil {
			opt := core.DefaultOptions()
			j.SussOpt = &opt
		}
	} else {
		j.SussOpt = nil
	}
	j.Observe = j.Observe || j.WallLimit > 0
	j.WallLimit = 0
	return j, nil
}

// NormalizeFleetJob is NormalizeJob's fleet-shard counterpart; it
// additionally fills the population defaults workload.Shard applies
// (DefaultMix, Poisson arrivals at 100 flows/s) and clamps Shards to 1.
func NormalizeFleetJob(j runner.FleetJob) (runner.FleetJob, error) {
	if j.Impair != nil {
		return j, errors.New("confhash: fleet job with an Impair hook is not cacheable")
	}
	if j.Shards <= 0 {
		j.Shards = 1
	}
	if j.Shard < 0 || j.Shard >= j.Shards {
		return j, fmt.Errorf("confhash: shard %d out of range [0,%d)", j.Shard, j.Shards)
	}
	if j.Horizon <= 0 {
		j.Horizon = runner.DefaultHorizon
	}
	if j.Transport == nil {
		cfg := tcp.DefaultConfig()
		j.Transport = &cfg
	}
	if j.Algo == runner.Suss {
		if j.SussOpt == nil {
			opt := core.DefaultOptions()
			j.SussOpt = &opt
		}
	} else {
		j.SussOpt = nil
	}
	j.Observe = j.Observe || j.WallLimit > 0
	j.WallLimit = 0
	if len(j.Pop.Mix) == 0 {
		j.Pop.Mix = workload.DefaultMix()
	}
	if j.Pop.Arrivals == nil {
		j.Pop.Arrivals = workload.PoissonArrivals{Rate: 100}
	}
	return j, nil
}
