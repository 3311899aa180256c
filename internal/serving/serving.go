// Package serving is the model-serving runtime every SPATIAL service
// predicts through: a versioned, content-addressed model registry with an
// LRU warm cache, per-model worker pools that drain a bounded request
// queue work-conservingly (a free worker scores whatever calls are queued
// as one batch, so batches form only under contention and an idle worker
// takes a request at once), and admission control that sheds load with a
// retryable overload error before queueing collapses into latency.
//
// The paper's capacity experiments (§VII-B) drive the deployed services
// with concurrent JMeter traffic; this package replaces the serial
// per-request prediction loop those experiments saturate with a runtime
// that amortizes per-request overhead across batches (tree-major batch
// kernels in internal/ml), bounds concurrency to the hardware, and turns
// overload into fast 429s instead of unbounded queueing.
//
// Time is injected via internal/clock so recorded latencies are exact
// under a fake clock in tests; telemetry (queue depth, batch size and
// latency, shed and eviction counters) records into an
// internal/telemetry registry exposed at /metrics.
package serving

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/ml"
	"repro/internal/telemetry"
)

// Config parameterizes the runtime. The zero value is usable: every
// field falls back to the documented default.
type Config struct {
	// MaxBatch bounds coalescing (default 64): a worker stops draining
	// queued calls into its batch once the batch holds MaxBatch
	// instances. Calls are never split, so a call larger than MaxBatch is
	// scored whole and the last call drained may carry a batch past
	// MaxBatch; the shed watermark caps every call's size.
	MaxBatch int
	// Workers is the per-model worker-pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the per-model request queue (default 1024).
	QueueDepth int
	// ShedWatermark is the in-flight instance count (queued + executing,
	// per model) beyond which new requests are shed with an
	// *OverloadedError (default 3/4 of QueueDepth, clamped to
	// QueueDepth).
	ShedWatermark int
	// RetryAfter is the client back-off hint carried by shed responses
	// (default 250ms).
	RetryAfter time.Duration
	// WarmBytes is the registry's warm-cache budget in serialized bytes
	// (default 128 MiB): cold models deserialize on demand, least
	// recently used models are evicted back to bytes.
	WarmBytes int64
	// Clock is the time source for latency measurements only (nothing
	// in the runtime waits on it); clock.Real() when nil. Tests install a
	// clock.Fake and assert exact recorded latencies.
	Clock clock.Clock
	// Telemetry is the metric registry serving metrics record into; a
	// private registry is created when nil.
	Telemetry *telemetry.Registry
}

// withDefaults resolves zero fields to their documented defaults.
func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.ShedWatermark <= 0 {
		c.ShedWatermark = c.QueueDepth * 3 / 4
	}
	if c.ShedWatermark > c.QueueDepth {
		c.ShedWatermark = c.QueueDepth
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 250 * time.Millisecond
	}
	if c.WarmBytes <= 0 {
		c.WarmBytes = 128 << 20
	}
	if c.Clock == nil {
		c.Clock = clock.Real()
	}
	if c.Telemetry == nil {
		c.Telemetry = telemetry.NewRegistry()
	}
	return c
}

// OverloadedError is returned when admission control sheds a request:
// the model's in-flight depth is past the watermark. Servers surface it
// as 429 with a Retry-After header; service.Client honors the hint.
type OverloadedError struct {
	// Ref is the model reference the shed request addressed.
	Ref string
	// Depth is the in-flight instance count at shed time.
	Depth int
	// RetryAfter is the suggested client back-off.
	RetryAfter time.Duration
}

// Error implements error.
func (e *OverloadedError) Error() string {
	return fmt.Sprintf("serving: model %s overloaded (%d in flight); retry after %v",
		e.Ref, e.Depth, e.RetryAfter)
}

// ErrClosed is returned by Predict after Close.
var ErrClosed = errors.New("serving: runtime closed")

// Runtime is the model-serving runtime. Create with New, register models
// through Registry(), predict with Predict, and Close when done.
type Runtime struct {
	cfg Config
	clk clock.Clock
	met *metrics
	reg *Registry

	mu     sync.Mutex
	lines  map[string]*line
	closed bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// New constructs a runtime (and its registry) from cfg.
func New(cfg Config) *Runtime {
	cfg = cfg.withDefaults()
	met := newMetrics(cfg.Telemetry)
	r := &Runtime{
		cfg:   cfg,
		clk:   cfg.Clock,
		met:   met,
		reg:   newRegistry(cfg.WarmBytes, met),
		lines: make(map[string]*line),
		stop:  make(chan struct{}),
	}
	cfg.Telemetry.OnGather(func() { met.queueDepth.Set(float64(r.InFlight())) })
	return r
}

// Registry returns the runtime's model registry.
func (r *Runtime) Registry() *Registry { return r.reg }

// Telemetry returns the metric registry serving metrics record into.
func (r *Runtime) Telemetry() *telemetry.Registry { return r.cfg.Telemetry }

// call is one Predict invocation, queued whole on its model's line. The
// worker that scores it fills probs or err, then closes done.
type call struct {
	x     [][]float64
	at    time.Time
	probs [][]float64
	err   error
	done  chan struct{}
}

// line is the serving pipeline of one content-addressed model: a bounded
// queue of calls drained directly by a pool of workers.
type line struct {
	id       string
	queue    chan *call
	inflight atomic.Int64
}

// line returns (creating and starting on first use) the pipeline for a
// content id.
func (r *Runtime) line(id string) (*line, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrClosed
	}
	if ln, ok := r.lines[id]; ok {
		return ln, nil
	}
	ln := &line{id: id, queue: make(chan *call, r.cfg.QueueDepth)}
	r.lines[id] = ln
	r.wg.Add(r.cfg.Workers)
	for w := 0; w < r.cfg.Workers; w++ {
		go r.runWorker(ln)
	}
	return ln, nil
}

// Predict scores instances against the model addressed by ref (a content
// id, name@version, name@latest, or a promoted bare name), coalescing
// them with concurrently queued callers into one batch when every worker
// is busy. It returns one probability row and one argmax class per
// instance.
func (r *Runtime) Predict(ctx context.Context, ref string, instances [][]float64) ([][]float64, []int, error) {
	id, err := r.reg.Resolve(ref)
	if err != nil {
		return nil, nil, err
	}
	if len(instances) == 0 {
		return nil, nil, nil
	}
	ln, err := r.line(id)
	if err != nil {
		return nil, nil, err
	}

	// Admission: reserve in-flight slots up front; past the watermark the
	// request is shed instead of queued, so latency stays bounded and the
	// client backs off (429 + Retry-After at the HTTP layer).
	n := int64(len(instances))
	depth := ln.inflight.Add(n)
	if depth > int64(r.cfg.ShedWatermark) {
		ln.inflight.Add(-n)
		r.met.shed.Add(float64(n))
		return nil, nil, &OverloadedError{Ref: ref, Depth: int(depth - n), RetryAfter: r.cfg.RetryAfter}
	}

	c := &call{x: instances, at: r.clk.Now(), done: make(chan struct{})}
	// The reservation above guarantees queue room (every queued call holds
	// at least one reserved instance, and the watermark caps in-flight at
	// or below the queue capacity), so this send cannot block on a full
	// queue — a bare send, not a select, keeps it off the slow path.
	ln.queue <- c

	if ctxDone := ctx.Done(); ctxDone == nil {
		// Background-style context: a two-way select keeps the hot path
		// cheap.
		select {
		case <-c.done:
		case <-r.stop:
			return nil, nil, ErrClosed
		}
	} else {
		select {
		case <-c.done:
		case <-ctxDone:
			return nil, nil, ctx.Err()
		case <-r.stop:
			return nil, nil, ErrClosed
		}
	}
	if c.err != nil {
		return nil, nil, c.err
	}
	return c.probs, ml.ArgmaxAll(c.probs), nil
}

// runWorker serves a line work-conservingly: it blocks for one call, then
// drains the calls already queued behind it until the batch holds
// MaxBatch instances, and scores them together. Batches therefore form
// only while every worker is busy; an idle worker scores a lone call at
// once.
func (r *Runtime) runWorker(ln *line) {
	defer r.wg.Done()
	batch := make([]*call, 0, r.cfg.MaxBatch)
	for {
		var c *call
		select {
		case c = <-ln.queue:
		case <-r.stop:
			return
		}
		batch = append(batch[:0], c)
		n := len(c.x)
	drain:
		for n < r.cfg.MaxBatch {
			select {
			case c := <-ln.queue:
				batch = append(batch, c)
				n += len(c.x)
			default:
				break drain
			}
		}
		r.execute(ln, batch, n)
		// Drop the completed calls so they are not kept alive until the
		// next batch overwrites them.
		clear(batch)
	}
}

// execute scores one batch of n instances and completes every call in it.
// A coalesced batch that fails (a model error, or a prediction panic such
// as one call's too-wide row) is split in halves and each half executed
// on its own, down to single calls, so only the offending call gets the
// error and every other call its own answer.
func (r *Runtime) execute(ln *line, batch []*call, n int) {
	first := batch[0]
	if len(batch) == 1 {
		first.probs, first.err = r.scoreBatch(ln.id, first.x)
	} else {
		probs, err := r.scoreBatch(ln.id, concatRows(batch, n))
		if err != nil {
			h := len(batch) / 2
			m := 0
			for _, c := range batch[:h] {
				m += len(c.x)
			}
			r.execute(ln, batch[:h], m)
			r.execute(ln, batch[h:], n-m)
			return
		}
		for _, c := range batch {
			k := len(c.x)
			// Reslice hint: slicing the rest first bounds k by len(probs),
			// so the call's own rows need no second check.
			rest := probs[k:]
			c.probs, probs = probs[:k:k], rest
		}
	}
	// Accounting precedes delivery: a Predict caller wakes the moment its
	// call completes, and anything it then reads (in-flight count, batch
	// histograms) must already reflect this batch.
	ln.inflight.Add(-int64(n))
	if first.err == nil {
		// Counted here, once per batch, rather than per call: every
		// instance in the batch was scored.
		r.met.predictions.Add(float64(n))
	}
	r.met.batchSize.Observe(float64(n))
	r.met.batchLatency.Observe(r.clk.Since(first.at).Seconds())
	for _, c := range batch {
		close(c.done)
	}
}

// concatRows gathers the instances of a coalesced batch into one slice.
func concatRows(batch []*call, n int) [][]float64 {
	X := make([][]float64, 0, n)
	for _, c := range batch {
		X = append(X, c.x...)
	}
	return X
}

// scoreBatch scores rows with one ml.PredictProbaAll call. A model error
// or a prediction panic (e.g. a dimension mismatch) becomes an error
// instead of crashing the worker.
func (r *Runtime) scoreBatch(id string, rows [][]float64) (probs [][]float64, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("serving: predict panic: %v", rec)
		}
	}()
	model, err := r.reg.Model(id)
	if err != nil {
		return nil, err
	}
	return ml.PredictProbaAll(model, rows), nil
}

// InFlight reports the total in-flight instance count across every model
// line (the admission-control queue-depth signal).
func (r *Runtime) InFlight() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	var total int64
	for _, ln := range r.lines {
		total += ln.inflight.Load()
	}
	return int(total)
}

// InFlightFor reports the in-flight instance count of one model ref (0
// when the ref does not resolve or has no line yet).
func (r *Runtime) InFlightFor(ref string) int {
	id, err := r.reg.Resolve(ref)
	if err != nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ln, ok := r.lines[id]
	if !ok {
		return 0
	}
	return int(ln.inflight.Load())
}

// Close stops every worker and fails pending Predict calls with
// ErrClosed. It is idempotent.
func (r *Runtime) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.mu.Unlock()
	close(r.stop)
	r.wg.Wait()
}
