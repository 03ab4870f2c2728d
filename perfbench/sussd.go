package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"suss/internal/service"
)

const (
	// warmPerRound warm resubmissions share each round with one cold
	// fresh-seed fig11 submission.
	warmPerRound = 60
	// fleetShare of the warm resubmissions are fleet matrices (8 large
	// cells); the rest are fig11 matrices (252 small cells).
	fleetShare = 0.1
	// primedCells is what the cache holds after prepare: one fig11
	// matrix and one fleet matrix.
	primedCells = 252 + 8
)

// sussdMixed is the sussd-mixed workload: an in-process experiment
// service with a durable cache file, served over loopback HTTP to one
// closed-loop client. Rounds mix warm resubmissions, which the cache
// answers without simulating, with one cold fresh-seed fig11 batch,
// which simulates every cell and appends it to the cache log.
type sussdMixed struct {
	seed     int64
	led      *ledger
	workdir  string
	cacheDir string // private directory holding the cache file

	srv    *service.Server
	hs     *http.Server
	base   string
	client *http.Client

	rng       *rand.Rand
	used      map[int64]bool    // fig11 seeds already submitted
	refs      map[string][]byte // submit spec → the CSV it must return
	warmFig11 []service.SubmitRequest
	warmFleet service.SubmitRequest
	last      service.Stats
	genFlows  int64
	nreq      int

	// Traced-phase service accounting.
	hits, misses, logBytes, coldCells int64
}

func newSussdMixed(seed int64, led *ledger, workdir string) *sussdMixed {
	return &sussdMixed{
		seed:      seed,
		led:       led,
		workdir:   workdir,
		rng:       rand.New(rand.NewSource(seed)),
		used:      map[int64]bool{seed: true},
		refs:      map[string][]byte{},
		warmFig11: []service.SubmitRequest{{Kind: "fig11", Seed: seed}},
		warmFleet: service.SubmitRequest{Kind: "fleet", Seed: seed},
		client:    &http.Client{Timeout: 2 * time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
	}
}

func (s *sussdMixed) tail() float64         { return 0.95 }
func (s *sussdMixed) generatedFlows() int64 { return s.genFlows }
func (s *sussdMixed) cacheFile() string     { return filepath.Join(s.cacheDir, "sussd-cache.log") }

func (s *sussdMixed) serviceLayer() serviceLayer {
	sl := serviceLayer{}
	if s.hits+s.misses > 0 {
		sl.hitRatio = float64(s.hits) / float64(s.hits+s.misses)
	}
	if s.coldCells > 0 {
		sl.logBytesPerCell = float64(s.logBytes) / float64(s.coldCells)
	}
	return sl
}

// prepare primes the cache file: the warm fig11 and fleet matrices are
// simulated once through the service, and each CSV is checked against
// the same matrix swept in-process.
func (s *sussdMixed) prepare(tr *tracer) error {
	dir, err := os.MkdirTemp(s.workdir, "sussd")
	if err != nil {
		return err
	}
	s.cacheDir = dir
	if err := s.start(tr); err != nil {
		return err
	}
	s.last = s.stats()

	csv, _, _ := s.request(tr, s.warmFig11[0], true)
	in := sweepFig11(fig11Plan(tr, s.seed), fig11Iters, tr, s.led, 0)
	checkFig11(s.led, "in-process fig11", in)
	s.led.check(bytes.Equal(csv, in.csv), "sussd fig11 CSV differs from the in-process sweep")
	s.last = s.stats() // the in-process sweep moved sim_runs

	csv, _, _ = s.request(tr, s.warmFleet, true)
	fc, jobs, n := fleetPlan(tr, s.seed)
	s.genFlows += n
	fl := sweepFleet(fc, jobs, tr, s.led, 0)
	checkFleet(s.led, "in-process fleet", fl)
	s.led.check(bytes.Equal(csv, fl.csv), "sussd fleet CSV differs from the in-process sweep")
	return s.stop()
}

// setup starts a fresh service on the primed cache file, which replays
// the log, and waits until it answers on loopback.
func (s *sussdMixed) setup(tr *tracer) error {
	if s.srv != nil {
		if err := s.stop(); err != nil {
			return err
		}
	}
	if err := s.start(tr); err != nil {
		return err
	}
	s.led.check(s.srv.Recovery().Entries == primedCells, "cache replay found %d entries, want %d", s.srv.Recovery().Entries, primedCells)
	return nil
}

func (s *sussdMixed) start(tr *tracer) error {
	sp := tr.start("service.New", 0, "")
	srv, err := service.New(service.Config{Workers: workers, CacheFile: s.cacheFile()})
	tr.end(sp)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(context.Background())
		return err
	}
	s.srv, s.base = srv, "http://"+ln.Addr().String()
	s.hs = &http.Server{Handler: srv.Handler()}
	go s.hs.Serve(ln)
	resp, err := s.client.Get(s.base + "/healthz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s", resp.Status)
	}
	return nil
}

// stop shuts the HTTP server down, then drains the service, which
// closes the cache log.
func (s *sussdMixed) stop() error {
	if s.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if derr := s.srv.Drain(ctx); err == nil {
		err = derr
	}
	s.srv, s.hs = nil, nil
	s.client.CloseIdleConnections()
	return err
}

func (s *sussdMixed) close() error {
	err := s.stop()
	if s.cacheDir != "" {
		if rerr := os.RemoveAll(s.cacheDir); err == nil {
			err = rerr
		}
	}
	return err
}

// warmup sends a few untimed warm resubmissions so connections and
// buffers reach their steady state.
func (s *sussdMixed) warmup(tr *tracer) error {
	s.last = s.stats()
	for i := 0; i < 4; i++ {
		s.request(nil, s.warmFig11[0], false)
	}
	s.request(nil, s.warmFleet, false)
	return nil
}

func (s *sussdMixed) round(tr *tracer) roundStats {
	var rs roundStats
	st0 := s.last
	coldAt := s.rng.Intn(warmPerRound + 1)
	for i := 0; i <= warmPerRound; i++ {
		if i == coldAt {
			seed := s.freshSeed()
			req := service.SubmitRequest{Kind: "fig11", Seed: seed}
			size0 := fileSize(s.cacheFile())
			_, lat, done := s.request(tr, req, true)
			rs.flows += done
			rs.busy += lat
			rs.counts.Completed += int64(done)
			if tr != nil {
				s.logBytes += fileSize(s.cacheFile()) - size0
				s.coldCells += int64(done)
			}
			s.warmFig11 = append(s.warmFig11, req)
			continue
		}
		req := s.warmFig11[s.rng.Intn(len(s.warmFig11))]
		if s.rng.Float64() < fleetShare {
			req = s.warmFleet
		}
		_, lat, _ := s.request(tr, req, false)
		rs.ops = append(rs.ops, ms(lat))
	}
	rs.counts.SimRuns = s.last.SimRuns - st0.SimRuns
	s.led.check(rs.counts.SimRuns == 252, "round simulated %d cells, want 252 (the cold batch only)", rs.counts.SimRuns)
	if tr != nil {
		s.hits += s.last.CacheHits - st0.CacheHits
		s.misses += s.last.CacheMisses - st0.CacheMisses
	}
	return rs
}

func (s *sussdMixed) freshSeed() int64 {
	for {
		seed := 2 + s.rng.Int63n(1<<40)
		if !s.used[seed] {
			s.used[seed] = true
			return seed
		}
	}
}

// request submits one matrix and waits for its CSV — the timed
// operation — then checks the answer and reconciles /v1/stats
// (untimed). A cold request must simulate every cell; a warm one must
// be served from the cache alone and reproduce the CSV the spec
// returned when it was cold. It returns the CSV, the submit→result
// latency and the cells simulated to completion.
func (s *sussdMixed) request(tr *tracer, req service.SubmitRequest, cold bool) ([]byte, time.Duration, int) {
	kind := "warm"
	if cold {
		kind = "cold"
	}
	s.nreq++
	ref := "req" + strconv.Itoa(s.nreq) + "/" + req.Kind
	body, _ := json.Marshal(req) // a struct of strings and numbers always encodes

	sp := tr.start("sussd."+kind+"_request", 0, ref)
	t0 := time.Now()
	sub := tr.start("service."+kind+"_submit", sp, ref)
	var ack service.SubmitResponse
	err := s.call(http.MethodPost, "/v1/jobs", body, &ack)
	tr.end(sub)
	var csv []byte
	if err == nil {
		res := tr.start("service."+kind+"_result", sp, ref)
		err = s.call(http.MethodGet, "/v1/jobs/"+ack.ID+"/result?wait=1", nil, &csv)
		tr.end(res)
	}
	lat := time.Since(t0)
	tr.end(sp)
	s.led.op(err)
	if err != nil {
		return nil, lat, 0
	}

	st := s.stats()
	dsim := st.SimRuns - s.last.SimRuns
	s.last = st
	s.led.check(int64(ack.Cached)+dsim == int64(ack.Cells), "%s: cells=%d but cached=%d + sim_runs delta=%d", ref, ack.Cells, ack.Cached, dsim)
	s.led.check(st.PersistErrors == 0, "%s: %d cache persist error(s)", ref, st.PersistErrors)
	key := string(body)
	done := 0
	if cold {
		s.led.check(ack.Cached == 0, "%s: cold batch had %d cached cell(s)", ref, ack.Cached)
		var js service.JobStatus
		if err := s.call(http.MethodGet, "/v1/jobs/"+ack.ID, nil, &js); err != nil {
			s.led.op(err)
		} else {
			s.led.check(js.Done == js.Cells && js.Errors == 0, "%s: %d of %d cells done, %d error(s)", ref, js.Done, js.Cells, js.Errors)
			done = js.Done
		}
		if old, ok := s.refs[key]; ok {
			s.led.check(bytes.Equal(old, csv), "%s: CSV differs from an earlier run of the same spec", ref)
		}
		s.refs[key] = csv
	} else {
		s.led.check(ack.Cached == ack.Cells && dsim == 0, "%s: warm batch cached %d of %d cells, simulated %d", ref, ack.Cached, ack.Cells, dsim)
		s.led.check(bytes.Equal(csv, s.refs[key]), "%s: warm CSV differs from the cold CSV of the same spec", ref)
	}
	return csv, lat, done
}

func (s *sussdMixed) stats() service.Stats {
	var st service.Stats
	s.led.op(s.call(http.MethodGet, "/v1/stats", nil, &st))
	return st
}

// call performs one HTTP request; a non-2xx answer is an error. out is
// either *[]byte (raw body) or a JSON target.
func (s *sussdMixed) call(method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(raw))
	}
	if b, ok := out.(*[]byte); ok {
		*b = raw
		return nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	return nil
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}
