package serving

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/ml"
	"repro/internal/telemetry"
)

func newTestRuntime(t *testing.T, cfg Config) (*Runtime, *clock.Fake, *telemetry.Registry, Ref) {
	t.Helper()
	fake := clock.NewFake(time.Unix(1700000000, 0))
	tel := telemetry.NewRegistry()
	cfg.Clock = fake
	cfg.Telemetry = tel
	rt := New(cfg)
	t.Cleanup(rt.Close)
	ref, err := rt.Registry().Register("fall", trainedLogReg(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	return rt, fake, tel, ref
}

// histSeries fetches the single series of a histogram family.
func histSeries(t *testing.T, tel *telemetry.Registry, name string) telemetry.Series {
	t.Helper()
	for _, fam := range tel.Gather() {
		if fam.Name == name {
			if len(fam.Series) != 1 {
				t.Fatalf("metric %s has %d series", name, len(fam.Series))
			}
			return fam.Series[0]
		}
	}
	t.Fatalf("metric %s not found", name)
	return telemetry.Series{}
}

// gatedModel wraps a classifier so a test can hold a worker busy: every
// batch it scores first reports its size on sizes, then waits until gate
// is closed. sizes is buffered (64, more batches than any test runs) so
// reporting never blocks a worker once the gate is open.
type gatedModel struct {
	ml.Classifier
	sizes chan int
	gate  chan struct{}
}

func (g *gatedModel) PredictProbaBatch(X [][]float64) [][]float64 {
	g.sizes <- len(X)
	<-g.gate
	return ml.PredictProbaAll(g.Classifier, X)
}

// gateModel swaps a gatedModel in for ref's warm model, under the
// registry lock as the registry itself would, and returns it.
func gateModel(t *testing.T, rt *Runtime, ref Ref) *gatedModel {
	t.Helper()
	rt.reg.mu.Lock()
	defer rt.reg.mu.Unlock()
	e := rt.reg.entries[ref.ID]
	if e.model == nil {
		t.Fatal("registered model is not warm")
	}
	g := &gatedModel{Classifier: e.model, sizes: make(chan int, 64), gate: make(chan struct{})}
	e.model = g
	return g
}

// queued reports how many calls wait in ref's line queue.
func queued(rt *Runtime, ref Ref) int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	ln, ok := rt.lines[ref.ID]
	if !ok {
		return 0
	}
	return len(ln.queue)
}

type result struct {
	probs   [][]float64
	classes []int
	err     error
}

// start runs one Predict in the background.
func start(ctx context.Context, rt *Runtime, ref Ref, x [][]float64) chan result {
	out := make(chan result, 1)
	go func() {
		probs, classes, err := rt.Predict(ctx, ref.Name, x)
		out <- result{probs, classes, err}
	}()
	return out
}

// hold starts a Predict and returns once the (single) worker is blocked
// scoring it inside the gated model.
func hold(t *testing.T, rt *Runtime, g *gatedModel, ref Ref, x [][]float64) chan result {
	t.Helper()
	out := start(context.Background(), rt, ref, x)
	if n := <-g.sizes; n != len(x) {
		t.Fatalf("held batch of %d, want %d", n, len(x))
	}
	return out
}

// enqueue starts a Predict and returns once its call sits in the queue
// behind the held worker, so calls queue in a known order.
func enqueue(rt *Runtime, ref Ref, x [][]float64) chan result {
	before := queued(rt, ref)
	out := start(context.Background(), rt, ref, x)
	for queued(rt, ref) == before {
		time.Sleep(100 * time.Microsecond)
	}
	return out
}

// drainSizes collects the batch sizes the gated model saw, in order.
func drainSizes(g *gatedModel) []int {
	var sizes []int
	for {
		select {
		case n := <-g.sizes:
			sizes = append(sizes, n)
		default:
			return sizes
		}
	}
}

// wantServed checks a served call against a direct ml.PredictProbaAll on
// the unwrapped model: served probabilities must be bit-identical.
func wantServed(t *testing.T, g *gatedModel, x [][]float64, r result) {
	t.Helper()
	if r.err != nil {
		t.Fatalf("call %v: %v", x, r.err)
	}
	want := ml.PredictProbaAll(g.Classifier, x)
	if !reflect.DeepEqual(r.probs, want) {
		t.Fatalf("call %v: probs %v, want %v", x, r.probs, want)
	}
	if !reflect.DeepEqual(r.classes, ml.ArgmaxAll(want)) {
		t.Fatalf("call %v: classes %v, want %v", x, r.classes, ml.ArgmaxAll(want))
	}
}

// TestLoneRequestCompletesAtOnce: an idle worker takes a lone request the
// moment it is queued. No virtual time passes, no timer is armed, and the
// request is one batch of one.
func TestLoneRequestCompletesAtOnce(t *testing.T) {
	rt, fake, tel, ref := newTestRuntime(t, Config{MaxBatch: 64, Workers: 1})

	_, classes, err := rt.Predict(context.Background(), ref.Name, [][]float64{{2, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != 1 || classes[0] != 1 {
		t.Fatalf("classes %v, want [1]", classes)
	}
	if n := fake.Pending(); n != 0 {
		t.Fatalf("%d clock waiters pending, want 0", n)
	}

	size := histSeries(t, tel, "spatial_serving_batch_size")
	if size.Count != 1 || size.Sum != 1 {
		t.Fatalf("batch size count=%d sum=%v, want one batch of one", size.Count, size.Sum)
	}
	lat := histSeries(t, tel, "spatial_serving_batch_latency_seconds")
	if lat.Count != 1 || lat.Sum != 0 {
		t.Fatalf("batch latency count=%d sum=%v, want exactly 0 (no virtual time passed)", lat.Count, lat.Sum)
	}
	if metricValue(t, tel, "spatial_serving_predictions_total") != 1 {
		t.Fatal("predictions counter != 1")
	}
	if rt.InFlight() != 0 {
		t.Fatalf("in-flight %d after completion", rt.InFlight())
	}
}

// TestBatcherSizeBoundFlush: a Predict carrying MaxBatch instances is
// scored at once as one batch — zero virtual time passes, so the recorded
// batch latency is exactly 0 and the batch size exactly MaxBatch.
func TestBatcherSizeBoundFlush(t *testing.T) {
	rt, _, tel, ref := newTestRuntime(t, Config{MaxBatch: 3, Workers: 1})

	probs, classes, err := rt.Predict(context.Background(), ref.Name,
		[][]float64{{2, 0}, {-2, 0}, {2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(probs) != 3 || len(classes) != 3 {
		t.Fatalf("got %d probs / %d classes", len(probs), len(classes))
	}
	if classes[0] != 1 || classes[1] != 0 || classes[2] != 1 {
		t.Fatalf("classes %v, want [1 0 1]", classes)
	}

	size := histSeries(t, tel, "spatial_serving_batch_size")
	if size.Count != 1 || size.Sum != 3 {
		t.Fatalf("batch size count=%d sum=%v, want one batch of three", size.Count, size.Sum)
	}
	lat := histSeries(t, tel, "spatial_serving_batch_latency_seconds")
	if lat.Count != 1 || lat.Sum != 0 {
		t.Fatalf("batch latency count=%d sum=%v, want exactly 0 (no virtual time passed)", lat.Count, lat.Sum)
	}
}

// TestQueuedCallsCoalesce: calls that queue while the worker is busy are
// drained into one batch of their summed size, up to MaxBatch; the call
// after that starts the next batch. Every call still gets exactly its own
// rows.
func TestQueuedCallsCoalesce(t *testing.T) {
	rt, _, tel, ref := newTestRuntime(t, Config{MaxBatch: 4, Workers: 1})
	g := gateModel(t, rt, ref)

	xa := [][]float64{{2, 0}}
	xb := [][]float64{{-2, 0}, {2, 1}}
	xc := [][]float64{{1, -1}, {-1, 1}}
	xd := [][]float64{{-2, 1}}
	a := hold(t, rt, g, ref, xa)
	b := enqueue(rt, ref, xb)
	c := enqueue(rt, ref, xc)
	d := enqueue(rt, ref, xd)
	close(g.gate)

	wantServed(t, g, xa, <-a)
	wantServed(t, g, xb, <-b)
	wantServed(t, g, xc, <-c)
	wantServed(t, g, xd, <-d)
	if sizes := drainSizes(g); !reflect.DeepEqual(sizes, []int{2 + 2, 1}) {
		t.Fatalf("batches after the held one: %v, want [4 1]", sizes)
	}
	size := histSeries(t, tel, "spatial_serving_batch_size")
	if size.Count != 3 || size.Sum != 6 {
		t.Fatalf("batch size count=%d sum=%v, want three batches of six instances", size.Count, size.Sum)
	}
	if metricValue(t, tel, "spatial_serving_predictions_total") != 6 {
		t.Fatal("predictions counter != 6")
	}
}

// TestOversizedCallScoredWhole: a call larger than MaxBatch is never
// split. It is scored as one batch, and nothing is drained in behind it.
func TestOversizedCallScoredWhole(t *testing.T) {
	rt, _, tel, ref := newTestRuntime(t, Config{MaxBatch: 2, Workers: 1})
	g := gateModel(t, rt, ref)

	xa := [][]float64{{2, 0}}
	xb := [][]float64{{2, 0}, {-2, 0}, {2, 1}}
	xc := [][]float64{{-2, 1}}
	a := hold(t, rt, g, ref, xa)
	b := enqueue(rt, ref, xb)
	c := enqueue(rt, ref, xc)
	close(g.gate)

	wantServed(t, g, xa, <-a)
	wantServed(t, g, xb, <-b)
	wantServed(t, g, xc, <-c)
	if sizes := drainSizes(g); !reflect.DeepEqual(sizes, []int{3, 1}) {
		t.Fatalf("batches after the held one: %v, want [3 1]", sizes)
	}
	size := histSeries(t, tel, "spatial_serving_batch_size")
	if size.Count != 3 || size.Sum != 5 {
		t.Fatalf("batch size count=%d sum=%v, want three batches of five instances", size.Count, size.Sum)
	}
}

// TestCoBatchedFailureIsolated: a call whose row panics the model (too
// wide for the logreg kernel) shares a batch with well-formed calls. Every
// well-formed call still gets its own correct answer; only the offending
// call gets the error.
func TestCoBatchedFailureIsolated(t *testing.T) {
	rt, _, tel, ref := newTestRuntime(t, Config{Workers: 1})
	g := gateModel(t, rt, ref)

	xa := [][]float64{{2, 0}}
	good1 := [][]float64{{2, 0}}
	good2 := [][]float64{{2, 0}, {-2, 0}}
	bad := [][]float64{{1, 2, 3, 4, 5}}
	good3 := [][]float64{{-2, 1}}
	a := hold(t, rt, g, ref, xa)
	r1 := enqueue(rt, ref, good1)
	r2 := enqueue(rt, ref, good2)
	rb := enqueue(rt, ref, bad)
	r3 := enqueue(rt, ref, good3)
	close(g.gate)

	wantServed(t, g, xa, <-a)
	wantServed(t, g, good1, <-r1)
	wantServed(t, g, good2, <-r2)
	wantServed(t, g, good3, <-r3)
	if r := <-rb; r.err == nil {
		t.Fatal("too-wide row should surface as an error")
	}
	// The coalesced batch of five failed and was halved: the first half
	// (good1, good2) scored as one batch; the second (bad, good3) failed
	// again and was halved down to single calls.
	if sizes := drainSizes(g); !reflect.DeepEqual(sizes, []int{5, 3, 2, 1, 1}) {
		t.Fatalf("model calls after the held one: %v, want [5 3 2 1 1]", sizes)
	}
	size := histSeries(t, tel, "spatial_serving_batch_size")
	if size.Count != 4 || size.Sum != 6 {
		t.Fatalf("batch size count=%d sum=%v, want four completed batches of six instances", size.Count, size.Sum)
	}
	if metricValue(t, tel, "spatial_serving_predictions_total") != 5 {
		t.Fatal("predictions counter != 5: only the served instances count")
	}
	if rt.InFlight() != 0 {
		t.Fatalf("in-flight %d after completion", rt.InFlight())
	}
}

// TestAdmissionControlSheds fills a line to its watermark and asserts the
// next request is shed with an *OverloadedError carrying the configured
// Retry-After, while the queued requests still complete.
func TestAdmissionControlSheds(t *testing.T) {
	cfg := Config{Workers: 1, QueueDepth: 8, ShedWatermark: 4}
	rt, _, tel, ref := newTestRuntime(t, cfg)
	g := gateModel(t, rt, ref)

	// Four slots: one call held in the worker, three queued behind it.
	x := [][]float64{{2, 0}}
	pending := []chan result{hold(t, rt, g, ref, x)}
	for i := 0; i < 3; i++ {
		pending = append(pending, enqueue(rt, ref, x))
	}
	if n := rt.InFlightFor(ref.Name); n != 4 {
		t.Fatalf("in-flight %d, want 4", n)
	}

	_, _, err := rt.Predict(context.Background(), ref.Name, [][]float64{{0, 0}})
	var oe *OverloadedError
	if !errors.As(err, &oe) {
		t.Fatalf("err %v, want *OverloadedError", err)
	}
	if oe.RetryAfter != 250*time.Millisecond {
		t.Fatalf("RetryAfter %v, want default 250ms", oe.RetryAfter)
	}
	if oe.Depth != 4 {
		t.Fatalf("Depth %d, want 4", oe.Depth)
	}
	if metricValue(t, tel, "spatial_serving_shed_total") != 1 {
		t.Fatal("shed counter != 1")
	}

	// Drain: release the worker and let the held and queued calls finish.
	close(g.gate)
	for _, out := range pending {
		wantServed(t, g, x, <-out)
	}
	if rt.InFlight() != 0 {
		t.Fatalf("in-flight %d after drain", rt.InFlight())
	}
	// Queue-depth gauge is collector-driven: gathering now reports 0.
	if metricValue(t, tel, "spatial_serving_queue_depth") != 0 {
		t.Fatal("queue depth gauge != 0 after drain")
	}
}

// TestPredictErrors covers the failure modes outside admission control.
func TestPredictErrors(t *testing.T) {
	rt, _, _, ref := newTestRuntime(t, Config{Workers: 1})

	if _, _, err := rt.Predict(context.Background(), "ghost", [][]float64{{0, 0}}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown ref: %v, want ErrNotFound", err)
	}
	if probs, classes, err := rt.Predict(context.Background(), ref.Name, nil); probs != nil || classes != nil || err != nil {
		t.Fatal("empty batch should be a no-op")
	}

	// Context cancellation unblocks a Predict whose call the worker is
	// still scoring.
	g := gateModel(t, rt, ref)
	ctx, cancel := context.WithCancel(context.Background())
	out := start(ctx, rt, ref, [][]float64{{2, 0}})
	<-g.sizes
	cancel()
	if r := <-out; !errors.Is(r.err, context.Canceled) {
		t.Fatalf("cancelled Predict: %v", r.err)
	}
	close(g.gate) // let the worker finish the abandoned call
	for rt.InFlight() != 0 {
		time.Sleep(100 * time.Microsecond)
	}

	// A prediction panic (dimension mismatch) fails the call, not the
	// worker: the runtime keeps serving afterwards.
	if _, _, err := rt.Predict(context.Background(), ref.Name, [][]float64{{1, 2, 3, 4, 5}}); err == nil {
		t.Fatal("dimension mismatch should surface as an error")
	}
	_, classes, err := rt.Predict(context.Background(), ref.Name, [][]float64{{2, 0}, {-2, 0}})
	if err != nil || classes[0] != 1 || classes[1] != 0 {
		t.Fatalf("runtime dead after panic: %v %v", classes, err)
	}

	rt.Close()
	rt.Close() // idempotent
	if _, _, err := rt.Predict(context.Background(), ref.Name, [][]float64{{2, 0}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("predict after close: %v, want ErrClosed", err)
	}
}
