package serving

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/ml"
	"repro/internal/telemetry"
)

// TestRuntimeConcurrentUse hammers every registry and runtime surface at
// once — predicts, version registrations, promotes/rollbacks, alias
// listings, and LRU churn from a tiny warm budget — and asserts the
// runtime settles clean. Run under -race this is the subsystem's
// data-race certificate.
func TestRuntimeConcurrentUse(t *testing.T) {
	tel := telemetry.NewRegistry()
	rt := New(Config{
		MaxBatch:  8,
		Workers:   2,
		WarmBytes: 1, // every cold load evicts: maximum cache churn
		Telemetry: tel,
	})
	defer rt.Close()
	reg := rt.Registry()

	// Pre-marshal distinct model generations on the test goroutine
	// (trainedLogReg may t.Fatal, which is main-goroutine-only).
	blobs := make([][]byte, 4)
	for i := range blobs {
		raw, err := ml.MarshalModel(trainedLogReg(t, int64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		blobs[i] = raw
	}
	if _, err := reg.RegisterBytes("fall", "lr", blobs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register("gait", trainedLogReg(t, 9)); err != nil {
		t.Fatal(err)
	}

	const iters = 40
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < iters; i++ {
				name := "fall"
				if (g+i)%2 == 0 {
					name = "gait"
				}
				_, _, err := rt.Predict(ctx, name, [][]float64{{2, 0}, {-2, 0}})
				var oe *OverloadedError
				if err != nil && !errors.As(err, &oe) && !errors.Is(err, ErrNotFound) {
					t.Errorf("predict %s: %v", name, err)
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() { // registrar: new versions of fall
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, err := reg.RegisterBytes("fall", "lr", blobs[i%len(blobs)]); err != nil {
				t.Errorf("register: %v", err)
			}
		}
	}()
	wg.Add(1)
	go func() { // operator: promote/rollback/inspect
		defer wg.Done()
		for i := 0; i < iters; i++ {
			// Version 2 races the registrar goroutine; tolerate not-yet.
			if err := reg.Promote("fall", 1+i%2); err != nil && !errors.Is(err, ErrNotFound) {
				t.Errorf("promote: %v", err)
			}
			if i%4 == 3 {
				// May legitimately find an empty history.
				_, _ = reg.Rollback("fall")
			}
			reg.Aliases()
			reg.WarmBytes()
			rt.InFlight()
		}
	}()
	wg.Wait()

	for rt.InFlight() != 0 {
		time.Sleep(100 * time.Microsecond)
	}
	if metricValue(t, tel, "spatial_serving_queue_depth") != 0 {
		t.Fatal("queue depth gauge nonzero after settle")
	}
	if got := reg.Len(); got != len(blobs)+1 {
		t.Fatalf("registry holds %d entries, want %d (content dedup across registrars)", got, len(blobs)+1)
	}
	if metricValue(t, tel, "spatial_serving_predictions_total") == 0 {
		t.Fatal("no predictions recorded")
	}
}
