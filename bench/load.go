package main

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"lsdgnn/internal/graph"
	"lsdgnn/internal/sampler"
)

const (
	nWindows = 5
	// maxOpenInflight caps an open-loop generator's outstanding requests;
	// one due while the cap is reached is refused and counts as failed, so
	// a system that falls behind shows up in ok_share instead of in an
	// unbounded pile of goroutines.
	maxOpenInflight = 64
	// ingestTick is how often the writer wakes to append the edges that
	// have come due: fine enough that appends stay spread over the window,
	// coarse enough that the generator's own wake-ups cost no CPU worth
	// counting.
	ingestTick = 5 * time.Millisecond
)

// sampleFunc is the one call the load generators drive.
type sampleFunc func(ctx context.Context, roots []graph.NodeID) (*sampler.Result, error)

// windowRec is what the load generators saw complete inside one
// measurement window.
type windowRec struct {
	latMS    []float64 // latency of error-free requests
	lateMS   []float64 // open loop: how late each request left the generator
	appendUS []float64 // ingest: AddEdge call time
	roots    int64     // roots of error-free requests
	ok       int64     // error-free requests and writes
	failed   int64     // everything else attempted
}

// recorder attributes each completion to the window open when it
// completes; completions outside any window (warm-up, drain) are dropped.
type recorder struct {
	mu   sync.Mutex
	cur  int
	wins [nWindows]windowRec
	// firstErr is the first failure seen inside a window, kept so a run
	// whose ok_share dipped can say why.
	firstErr error
}

func newRecorder() *recorder {
	r := &recorder{cur: -1}
	for i := range r.wins {
		// Preallocated so the generators' bookkeeping stays out of
		// allocs_per_root (4096 covers 1000 requests/s per window).
		r.wins[i].latMS = make([]float64, 0, 4096)
		r.wins[i].lateMS = make([]float64, 0, 4096)
		r.wins[i].appendUS = make([]float64, 0, 1<<15)
	}
	return r
}

func (r *recorder) setWindow(i int) {
	r.mu.Lock()
	r.cur = i
	r.mu.Unlock()
}

func (r *recorder) request(lat, late time.Duration, roots int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cur < 0 {
		return
	}
	w := &r.wins[r.cur]
	w.lateMS = append(w.lateMS, float64(late)/1e6)
	if err != nil {
		r.fail(w, err)
		return
	}
	w.ok++
	w.roots += int64(roots)
	w.latMS = append(w.latMS, float64(lat)/1e6)
}

func (r *recorder) write(d time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cur < 0 {
		return
	}
	w := &r.wins[r.cur]
	if err != nil {
		r.fail(w, err)
		return
	}
	w.ok++
	w.appendUS = append(w.appendUS, float64(d)/1e3)
}

// fail counts one failure in w. Caller holds r.mu.
func (r *recorder) fail(w *windowRec, err error) {
	w.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// errRefused marks an open-loop request that was due while the in-flight
// cap was reached.
var errRefused = errors.New("refused: open-loop in-flight cap reached")

// one runs a single request and returns nil only if it was error-free. A
// partial result (degraded roots) is a failure here: the benchmark's
// workloads are chosen so that nothing fails.
func one(ctx context.Context, sample sampleFunc, roots []graph.NodeID) error {
	res, err := sample(ctx, roots)
	if res != nil {
		res.Release()
	} else if err == nil {
		err = errors.New("no result and no error")
	}
	return err
}

// closedLoop is one client that sends its next batch only after the
// previous one completed; latency runs from send.
func closedLoop(ctx context.Context, sample sampleFunc, batches [][]graph.NodeID, rec *recorder, stop *atomic.Bool) {
	for i := 0; !stop.Load() && ctx.Err() == nil; i++ {
		roots := batches[i%len(batches)]
		start := time.Now()
		err := one(ctx, sample, roots)
		rec.request(time.Since(start), 0, len(roots), err)
	}
}

// openLoop sends batches on a fixed schedule whatever the system does
// with them. Latency runs from the time a request was due, not from when
// it left: a stall is paid for by every request due during it. It returns
// once every request it sent has completed.
func openLoop(ctx context.Context, sample sampleFunc, batches [][]graph.NodeID, perSecond float64, rec *recorder, stop *atomic.Bool) {
	interval := time.Duration(float64(time.Second) / perSecond)
	var inflight atomic.Int64
	var wg sync.WaitGroup
	begin := time.Now()
	for k := 0; ; k++ {
		due := begin.Add(time.Duration(k) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if stop.Load() || ctx.Err() != nil {
			break
		}
		late := time.Since(due)
		roots := batches[k%len(batches)]
		if inflight.Load() >= maxOpenInflight {
			rec.request(0, late, len(roots), errRefused)
			continue
		}
		inflight.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := one(ctx, sample, roots)
			rec.request(time.Since(due), late, len(roots), err)
			inflight.Add(-1)
		}()
	}
	wg.Wait()
}

type edge struct{ src, dst graph.NodeID }

// ingestLoop appends edges on a fixed schedule of perSecond, waking every
// ingestTick to write the ones that have come due. It returns how many it
// wrote.
func ingestLoop(ctx context.Context, add func(src, dst graph.NodeID) error, edges []edge, perSecond float64, rec *recorder, stop *atomic.Bool) int {
	begin := time.Now()
	written := 0
	for tick := 1; !stop.Load() && ctx.Err() == nil; tick++ {
		if d := time.Until(begin.Add(time.Duration(tick) * ingestTick)); d > 0 {
			time.Sleep(d)
		}
		due := int(time.Since(begin).Seconds() * perSecond)
		for ; written < due && written < len(edges); written++ {
			e := edges[written]
			start := time.Now()
			err := add(e.src, e.dst)
			rec.write(time.Since(start), err)
		}
	}
	return written
}
