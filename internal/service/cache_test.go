package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"suss/internal/runner"
)

// A replayed record is decoded on its first hit only: the decoded cell
// replaces the bytes, and every later hit returns that same cell.
func TestCacheDecodesReplayedRecordOnce(t *testing.T) {
	path := tmpCachePath(t)
	c, _ := mustOpen(t, path)
	putString(c, "k", "cell")
	c.Close()

	c2, _ := mustOpen(t, path)
	defer c2.Close()
	if e := c2.entries["k"]; e.cell != nil || string(e.raw) != "cell" {
		t.Fatalf("replayed entry %+v, want raw bytes and no decoded cell", e)
	}
	decodes := 0
	decode := func(raw []byte) (any, error) {
		decodes++
		return &struct{ s string }{string(raw)}, nil
	}
	first, ok := c2.Get("k", decode)
	if !ok {
		t.Fatal("replayed record missed")
	}
	if e := c2.entries["k"]; e.raw != nil || e.cell != first {
		t.Errorf("after the first hit the entry still holds %d raw byte(s)", len(e.raw))
	}
	for i := 0; i < 3; i++ {
		if again, ok := c2.Get("k", decode); !ok || again != first {
			t.Fatalf("hit %d returned %v, want the cell decoded on the first hit", i+2, again)
		}
	}
	if decodes != 1 {
		t.Errorf("decoded %d times, want once", decodes)
	}
	if c2.Hits() != 4 || c2.Misses() != 0 {
		t.Errorf("hits=%d misses=%d, want 4/0", c2.Hits(), c2.Misses())
	}
	// The decoded entry still dedups a re-put of the same cell.
	size := fileSize(t, path)
	putString(c2, "k", "cell")
	if got := fileSize(t, path); got != size {
		t.Errorf("re-put of a decoded entry grew the log %d → %d bytes", size, got)
	}
}

// A persisted fig11 cell whose record passes its checksum but no longer
// decodes is counted as a miss, simulated again, replaced in memory and
// appended exactly once — and the batch CSV is the clean run's.
func TestUndecodableRecordResimulated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sussd.cache")
	req := SubmitRequest{Kind: "fig11", Sizes: []int64{256 << 10}, Iters: 1, Seed: 61}

	s1, c1 := newServerClient(t, Config{Workers: 2, CacheFile: path})
	sub := c1.submit(req)
	clean := c1.result(sub.ID)
	key := c1.status(sub.ID).Detail[5].Key
	drain(t, s1)

	// Shadow one cell with a record that passes the checksum but is
	// not a cell: replay keeps the last record per key.
	c, _ := mustOpen(t, path)
	putString(c, key, "not a cell")
	c.Close()

	s2, c2 := newServerClient(t, Config{Workers: 2, CacheFile: path})
	if got := s2.Recovery().Entries; got != sub.Cells+1 {
		t.Fatalf("replayed %d records, want %d", got, sub.Cells+1)
	}
	sims := runner.SimRuns()
	sub2 := c2.submit(req)
	if csv := c2.result(sub2.ID); !bytes.Equal(csv, clean) {
		t.Errorf("CSV after re-simulating the bad cell differs:\n got:\n%s\nwant:\n%s", csv, clean)
	}
	if d := runner.SimRuns() - sims; d != 1 {
		t.Errorf("re-simulated %d cells, want 1", d)
	}
	st := c2.stats()
	if st.CacheHits != int64(sub.Cells-1) || st.CacheMisses != 1 {
		t.Errorf("hits=%d misses=%d, want %d/1", st.CacheHits, st.CacheMisses, sub.Cells-1)
	}
	if js := c2.status(sub2.ID); js.Cached != sub.Cells-1 || js.Done != 1 {
		t.Errorf("batch status %+v, want %d cached and 1 done", js, sub.Cells-1)
	}
	// Warm again: nothing simulated, nothing appended.
	size := fileSize(t, path)
	sims = runner.SimRuns()
	sub3 := c2.submit(req)
	if csv := c2.result(sub3.ID); !bytes.Equal(csv, clean) {
		t.Error("warm CSV after the repair differs from the clean run")
	}
	if d := runner.SimRuns() - sims; d != 0 || fileSize(t, path) != size {
		t.Errorf("warm resubmission simulated %d cells and grew the log by %d bytes", d, fileSize(t, path)-size)
	}
	drain(t, s2)

	s3, c3 := newServerClient(t, Config{Workers: 2, CacheFile: path})
	defer drain(t, s3)
	if got := s3.Recovery().Entries; got != sub.Cells+2 {
		t.Errorf("log holds %d records, want %d (the repair appended once)", got, sub.Cells+2)
	}
	sims = runner.SimRuns()
	sub4 := c3.submit(req)
	if csv := c3.result(sub4.ID); !bytes.Equal(csv, clean) || runner.SimRuns() != sims {
		t.Error("the repaired log does not replay to a fully warm, identical batch")
	}
}

// Concurrent warm batches of both kinds share decoded cells: after a
// restart every entry is raw, so the first hits race to decode, and
// every later batch reads the same cells. Each CSV must match the cold
// run byte for byte (and, under -race, without a data race).
func TestConcurrentWarmBatchesShareCells(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sussd.cache")
	reqs := []SubmitRequest{
		{Kind: "fig11", Sizes: []int64{256 << 10}, Iters: 1, Seed: 71},
		{Kind: "fleet", Flows: 80, Shards: 2, Seed: 71},
	}
	s1, c1 := newServerClient(t, Config{Workers: 2, CacheFile: path})
	want := make([][]byte, len(reqs))
	for i, r := range reqs {
		want[i] = c1.result(c1.submit(r).ID)
	}
	drain(t, s1)

	s2, c2 := newServerClient(t, Config{Workers: 2, CacheFile: path})
	defer drain(t, s2)
	sims := runner.SimRuns()
	const rounds = 3
	var wg sync.WaitGroup
	got := make([][]byte, rounds*len(reqs))
	errs := make([]error, len(got))
	for k := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[k], errs[k] = submitAndWait(c2.url, reqs[k%len(reqs)])
		}()
	}
	wg.Wait()
	for k, csv := range got {
		if errs[k] != nil {
			t.Errorf("concurrent warm batch %d: %v", k, errs[k])
		} else if !bytes.Equal(csv, want[k%len(reqs)]) {
			t.Errorf("concurrent warm %s batch %d: CSV differs from the cold run", reqs[k%len(reqs)].Kind, k)
		}
	}
	if d := runner.SimRuns() - sims; d != 0 {
		t.Errorf("warm batches simulated %d cells", d)
	}
}

// submitAndWait is the goroutine-safe submit → result round trip:
// it reports failures instead of stopping the test.
func submitAndWait(url string, req SubmitRequest) ([]byte, error) {
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	var sub SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp, err = http.Get(url + "/v1/jobs/" + sub.ID + "/result?wait=1")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("result %s: HTTP %d: %s", sub.ID, resp.StatusCode, raw)
	}
	return raw, err
}

func drain(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}
