package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"suss/internal/experiments"
	"suss/internal/runner"
	"suss/internal/scenarios"
)

// CellStatus is one matrix cell's lifecycle state.
type CellStatus string

const (
	// CellPending: not yet looked up or scheduled.
	CellPending CellStatus = "pending"
	// CellRunning: simulating now.
	CellRunning CellStatus = "running"
	// CellDone: simulated this batch (and cached for the next one).
	CellDone CellStatus = "done"
	// CellCached: served from the content-addressed cache, zero
	// simulator runs.
	CellCached CellStatus = "cached"
	// CellError: the cell carries an error (incomplete flow, stall,
	// panic); it still participates in aggregation the way the CLI
	// sweep treats failed downloads.
	CellError CellStatus = "error"
	// CellSkipped: the batch was cancelled before this cell started;
	// it was never simulated and is not cached.
	CellSkipped CellStatus = "skipped"
)

// CellInfo is one cell's public state: its content-addressed key and
// where it is in the pipeline.
type CellInfo struct {
	Key    string     `json:"key"`
	Status CellStatus `json:"status"`
	Err    string     `json:"err,omitempty"`
}

const (
	stateRunning  = "running"
	stateDone     = "done"
	stateFailed   = "failed"
	stateCanceled = "canceled"
)

// batch is one submitted job matrix: the unit /v1/jobs tracks.
type batch struct {
	id      string
	kind    string
	created time.Time

	// ctx governs the batch's executor; cancel is fired by
	// DELETE /v1/jobs/{id} and by daemon drain. In-flight cells run to
	// completion (a simulation cannot be interrupted mid-run), but no
	// new cell starts once the context is cancelled.
	ctx       context.Context
	cancel    context.CancelFunc
	cancelReq atomic.Bool

	// queuedLeft tracks this batch's share of the server's global
	// queued-cell count: initialized to the submit-time miss estimate,
	// decremented as cells leave the queue (start simulating or are
	// skipped), drained wholesale when the executor exits.
	queuedLeft atomic.Int64

	mu      sync.Mutex
	cells   []CellInfo
	state   string
	csv     []byte
	failure string
	version int // bumped on every visible transition; the stream endpoint polls it

	done chan struct{} // closed exactly once, by finish
}

func newBatch(id, kind string, keys []string, parent context.Context) *batch {
	ctx, cancel := context.WithCancel(parent)
	b := &batch{
		id:      id,
		kind:    kind,
		created: time.Now(),
		ctx:     ctx,
		cancel:  cancel,
		cells:   make([]CellInfo, len(keys)),
		state:   stateRunning,
		done:    make(chan struct{}),
	}
	for i, k := range keys {
		b.cells[i] = CellInfo{Key: k, Status: CellPending}
	}
	return b
}

func (b *batch) setCell(i int, st CellStatus, msg string) {
	b.mu.Lock()
	b.cells[i].Status = st
	b.cells[i].Err = msg
	b.version++
	b.mu.Unlock()
}

// requestCancel asks the batch to stop: no new cells start after it
// returns. Idempotent; a no-op on a terminal batch.
func (b *batch) requestCancel() {
	b.cancelReq.Store(true)
	b.cancel()
}

// terminal reports whether the batch has sealed (any non-running
// state) — the retention GC's eviction criterion.
func (b *batch) terminal() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state != stateRunning
}

// finish seals the batch. Idempotent: a recovery path may call it after
// the normal path already has.
func (b *batch) finish(csv []byte, err error) {
	st := stateDone
	msg := ""
	if err != nil {
		st, msg = stateFailed, err.Error()
		csv = nil
	}
	b.seal(st, csv, msg)
}

// finishCanceled seals a cancelled batch: cells simulated before the
// cancel are cached for the next submission, the rest were skipped.
func (b *batch) finishCanceled(skipped int) {
	b.seal(stateCanceled, nil, fmt.Sprintf("canceled: %d cell(s) skipped", skipped))
}

func (b *batch) seal(state string, csv []byte, failure string) {
	b.mu.Lock()
	if b.state != stateRunning {
		b.mu.Unlock()
		return
	}
	b.state = state
	b.csv = csv
	b.failure = failure
	b.version++
	b.mu.Unlock()
	b.cancel() // release the context; no-op if already cancelled
	close(b.done)
}

// JobStatus is the poll/stream view of a batch.
type JobStatus struct {
	ID      string     `json:"id"`
	Kind    string     `json:"kind"`
	State   string     `json:"state"` // running | done | failed | canceled
	Cells   int        `json:"cells"`
	Pending int        `json:"pending"`
	Running int        `json:"running"`
	Done    int        `json:"done"`
	Cached  int        `json:"cached"`
	Errors  int        `json:"errors"`
	Skipped int        `json:"skipped,omitempty"`
	Error   string     `json:"error,omitempty"`
	Created time.Time  `json:"created"`
	Detail  []CellInfo `json:"cells_detail,omitempty"`
}

// status snapshots the batch; withCells includes the per-cell list.
// The returned version orders snapshots for the stream endpoint.
func (b *batch) status(withCells bool) (JobStatus, int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := JobStatus{
		ID:      b.id,
		Kind:    b.kind,
		State:   b.state,
		Cells:   len(b.cells),
		Error:   b.failure,
		Created: b.created,
	}
	for _, c := range b.cells {
		switch c.Status {
		case CellPending:
			st.Pending++
		case CellRunning:
			st.Running++
		case CellDone:
			st.Done++
		case CellCached:
			st.Cached++
		case CellError:
			st.Errors++
		case CellSkipped:
			st.Skipped++
		}
	}
	if withCells {
		st.Detail = append([]CellInfo(nil), b.cells...)
	}
	return st, b.version
}

// cellDownload is the serializable form of one fig11 cell: the subset
// of a download result the figure's aggregation and CSV consume.
// Floats round-trip exactly through encoding/json (shortest-form
// encoding), so a result reassembled from cache produces byte-identical
// CSV output.
type cellDownload struct {
	FCT         time.Duration `json:"fct"`
	LossRate    float64       `json:"loss_rate,omitempty"`
	Delivered   int64         `json:"delivered,omitempty"`
	Segments    int           `json:"segments,omitempty"`
	Retrans     int           `json:"retrans,omitempty"`
	RTOs        int           `json:"rtos,omitempty"`
	Drops       int           `json:"drops,omitempty"`
	PeakQueue   int           `json:"peak_queue,omitempty"`
	MaxG        int           `json:"max_g,omitempty"`
	AccelRounds int           `json:"accel_rounds,omitempty"`
	Completed   bool          `json:"completed"`
	Err         string        `json:"err,omitempty"`
}

// decodeCell is the Cache decode hook for both cell kinds: it decodes
// one record into a fresh *T.
func decodeCell[T cellDownload | cellShard](raw []byte) (any, error) {
	c := new(T)
	if err := json.Unmarshal(raw, c); err != nil {
		return nil, err
	}
	return c, nil
}

func newJobCell(r runner.Result) *cellDownload {
	c := &cellDownload{
		FCT:         r.FCT,
		LossRate:    r.LossRate,
		Delivered:   r.Delivered,
		Segments:    r.Segments,
		Retrans:     r.Retrans,
		RTOs:        r.RTOs,
		Drops:       r.Drops,
		PeakQueue:   r.PeakQueue,
		MaxG:        r.MaxG,
		AccelRounds: r.AccelRounds,
		Completed:   r.Completed,
	}
	if r.Err != nil {
		c.Err = r.Err.Error()
	}
	return c
}

// jobCellResult rebuilds the download result a cached cell stands for.
// It copies scalars only, so the shared cell is never aliased.
func jobCellResult(j runner.Job, c *cellDownload) runner.Result {
	res := runner.Result{
		Job: j,
		DownloadResult: runner.DownloadResult{
			Algo:        j.Algo,
			Size:        j.Size,
			FCT:         c.FCT,
			LossRate:    c.LossRate,
			Delivered:   c.Delivered,
			Segments:    c.Segments,
			Retrans:     c.Retrans,
			RTOs:        c.RTOs,
			Drops:       c.Drops,
			PeakQueue:   c.PeakQueue,
			MaxG:        c.MaxG,
			AccelRounds: c.AccelRounds,
			Completed:   c.Completed,
		},
	}
	if c.Err != "" {
		res.Err = errors.New(c.Err)
	}
	return res
}

// cellShard is the serializable form of one fleet cell. ShardResult is
// plain data (its error channels are excluded from JSON and a shard is
// only cached when they are nil), so the whole record round-trips.
type cellShard struct {
	Shard runner.ShardResult `json:"shard"`
	Err   string             `json:"err,omitempty"`
}

func newShardCell(r runner.FleetResult) *cellShard {
	c := &cellShard{Shard: r.ShardResult}
	if r.Err != nil {
		c.Err = r.Err.Error()
	}
	return c
}

// shardCellResult rebuilds the fleet result a cached cell stands for.
// The result shares the cell's Flows, which the fleet fold only reads.
func shardCellResult(c *cellShard) runner.FleetResult {
	res := runner.FleetResult{ShardResult: c.Shard}
	if c.Err != "" {
		res.Err = errors.New(c.Err)
	}
	return res
}

// cacheCell stores a freshly simulated cell in decoded form; its JSON
// encoding is what the cache log appends. A cell that cannot be encoded
// is not cached at all.
func (s *Server) cacheCell(key string, cell any) {
	if raw, err := json.Marshal(cell); err == nil {
		s.cache.Put(key, cell, raw)
	}
}

// fig11Plan is a validated fig11 submission: the job matrix in
// Fig11Jobs order plus the per-cell cache keys.
type fig11Plan struct {
	server scenarios.Server
	sizes  []int64
	iters  int
	jobs   []runner.Job
	keys   []string
}

// fleetPlan is a validated fleet submission: two variant job templates
// (SUSS off/on); cells are variant-major, cell i = (variant i/Shards,
// shard i%Shards).
type fleetPlan struct {
	fc   experiments.FleetConfig
	jobs [2]runner.FleetJob
	keys []string
}

// skippedByCancel reports whether a pool outcome error means the cell
// never ran because the batch context was cancelled (as opposed to a
// panic captured by the pool).
func skippedByCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// runFig11 executes a fig11 batch: serve every warm cell from the
// cache, simulate the misses on the worker pool, cache what the misses
// produced, and aggregate exactly the way the in-process sweep does.
// Cancellation stops new cells at the pool boundary; whatever finished
// before the cancel stays cached for the next submission.
func (s *Server) runFig11(b *batch, p fig11Plan) {
	defer func() {
		if r := recover(); r != nil {
			b.finish(nil, fmt.Errorf("fig11 executor panicked: %v", r))
		}
	}()
	results := make([]runner.Result, len(p.jobs))
	var miss []int
	for i := range p.jobs {
		if c, ok := s.cache.Get(b.cells[i].Key, decodeCell[cellDownload]); ok {
			results[i] = jobCellResult(p.jobs[i], c.(*cellDownload))
			b.setCell(i, CellCached, "")
			continue
		}
		miss = append(miss, i)
	}
	outs := runner.Map(b.ctx, miss, func(_ context.Context, _ int, i int) (runner.Result, error) {
		s.dequeueCell(b)
		b.setCell(i, CellRunning, "")
		s.cellRuns.Add(1)
		r := runner.Download(p.jobs[i])
		res := runner.Result{Job: p.jobs[i], DownloadResult: r}
		switch {
		case r.Stall != nil:
			res.Err = r.Stall
		case r.FlowErr != nil:
			res.Err = r.FlowErr
		case !r.Completed:
			res.Err = runner.ErrIncomplete
		}
		// Cache (and with a cache file, persist) the cell the moment it
		// finishes, not when the batch does: a crash or cancel mid-batch
		// then loses only the cells still in flight. Stalls are
		// wall-clock artifacts, not properties of the config; everything
		// else (including a deterministic incomplete flow) is cacheable.
		if res.Stall == nil {
			s.cacheCell(b.cells[i].Key, newJobCell(res))
		}
		if res.Err != nil {
			b.setCell(i, CellError, res.Err.Error())
		} else {
			b.setCell(i, CellDone, "")
		}
		return res, nil
	}, runner.Options{Workers: s.cfg.Workers})
	skipped := 0
	for k, o := range outs {
		i := miss[k]
		if o.Err != nil { // pool-level failure: cancellation skip or captured panic
			if skippedByCancel(o.Err) {
				s.dequeueCell(b)
				b.setCell(i, CellSkipped, "")
				skipped++
			} else {
				b.setCell(i, CellError, o.Err.Error())
			}
			results[i] = runner.Result{Job: p.jobs[i], Err: o.Err}
			continue
		}
		results[i] = o.Value
	}
	if skipped > 0 {
		b.finishCanceled(skipped)
		return
	}
	fig := experiments.Fig11FromResults(p.server, p.sizes, p.iters, results, false)
	var buf bytes.Buffer
	if err := fig.WriteCSV(&buf); err != nil {
		b.finish(nil, err)
		return
	}
	b.finish(buf.Bytes(), nil)
}

// runFleet executes a fleet batch with per-shard caching: each (variant,
// shard) cell is an independent deterministic simulation, so a
// resubmission that only grew the shard count still reuses every shard
// it shares with a previous run.
func (s *Server) runFleet(b *batch, p fleetPlan) {
	defer func() {
		if r := recover(); r != nil {
			b.finish(nil, fmt.Errorf("fleet executor panicked: %v", r))
		}
	}()
	n := p.fc.Shards
	results := [2][]runner.FleetResult{make([]runner.FleetResult, n), make([]runner.FleetResult, n)}
	var miss []int
	for i := range b.cells {
		if c, ok := s.cache.Get(b.cells[i].Key, decodeCell[cellShard]); ok {
			results[i/n][i%n] = shardCellResult(c.(*cellShard))
			b.setCell(i, CellCached, "")
			continue
		}
		miss = append(miss, i)
	}
	outs := runner.Map(b.ctx, miss, func(_ context.Context, _ int, i int) (runner.FleetResult, error) {
		s.dequeueCell(b)
		b.setCell(i, CellRunning, "")
		s.cellRuns.Add(1)
		sj := p.jobs[i/n]
		sj.Shard = i % n
		r := runner.RunFleetShard(sj)
		res := runner.FleetResult{ShardResult: r}
		switch {
		case r.Err != nil:
			res.Err = r.Err
		case r.Stall != nil:
			res.Err = r.Stall
		}
		// Cache per cell as it completes (see runFig11): crash or cancel
		// mid-batch loses only the in-flight shards.
		if res.Err == nil && res.Stall == nil {
			s.cacheCell(b.cells[i].Key, newShardCell(res))
		}
		if res.Err != nil {
			b.setCell(i, CellError, res.Err.Error())
		} else {
			b.setCell(i, CellDone, "")
		}
		return res, nil
	}, runner.Options{Workers: s.cfg.Workers})
	skipped := 0
	for k, o := range outs {
		i := miss[k]
		if o.Err != nil {
			if skippedByCancel(o.Err) {
				s.dequeueCell(b)
				b.setCell(i, CellSkipped, "")
				skipped++
			} else {
				b.setCell(i, CellError, o.Err.Error())
			}
			results[i/n][i%n] = runner.FleetResult{Err: o.Err}
			continue
		}
		results[i/n][i%n] = o.Value
	}
	if skipped > 0 {
		b.finishCanceled(skipped)
		return
	}
	fr := experiments.FleetFromShards(p.fc, results, false)
	var buf bytes.Buffer
	if err := fr.WriteCSV(&buf); err != nil {
		b.finish(nil, err)
		return
	}
	b.finish(buf.Bytes(), nil)
}
