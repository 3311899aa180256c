package cluster

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/dataset"
	"repro/internal/ml"
	"repro/internal/serving"
)

// testEpoch anchors every fake clock so virtual timelines (and the
// byte-identical scorecard assertions) are reproducible.
var testEpoch = time.Date(2024, 7, 1, 0, 0, 0, 0, time.UTC)

// sepTable builds a small linearly separable two-class table.
func sepTable(seed int64, n int) *dataset.Table {
	rng := rand.New(rand.NewSource(seed))
	tb := dataset.New("sep", []string{"f0", "f1"}, []string{"a", "b"})
	for i := 0; i < n; i++ {
		y := i % 2
		x := []float64{float64(y)*4 - 2 + rng.NormFloat64()*0.4, rng.NormFloat64()}
		if err := tb.Append(x, y); err != nil {
			panic(err)
		}
	}
	return tb
}

// trainedModel fits a logistic model; distinct seeds give distinct
// content ids.
func trainedModel(t *testing.T, seed int64) ml.Classifier {
	t.Helper()
	cfg := ml.DefaultLogRegConfig()
	cfg.Seed = seed
	m := ml.NewLogReg(cfg)
	if err := m.Fit(sepTable(seed, 120)); err != nil {
		t.Fatal(err)
	}
	return m
}

// testTier is a deterministic 3-replica in-process cluster on one fake
// clock.
type testTier struct {
	clk      *clock.Fake
	cluster  *Cluster
	replicas []*Replica
}

func newTestTier(t *testing.T, n int, cfg Config) *testTier {
	t.Helper()
	fake := clock.NewFake(testEpoch)
	cfg.Clock = fake
	c := New(cfg)
	tier := &testTier{clk: fake, cluster: c}
	for i := 0; i < n; i++ {
		rp := NewReplica(fmt.Sprintf("replica-%d", i), serving.Config{Clock: fake})
		tier.replicas = append(tier.replicas, rp)
		if err := c.Join(rp); err != nil {
			t.Fatalf("join %s: %v", rp.ID(), err)
		}
	}
	t.Cleanup(func() {
		for _, rp := range tier.replicas {
			rp.Close()
		}
	})
	return tier
}

// replica finds a member replica by ID.
func (tier *testTier) replica(t *testing.T, id string) *Replica {
	t.Helper()
	for _, rp := range tier.replicas {
		if rp.ID() == id {
			return rp
		}
	}
	t.Fatalf("no replica %q", id)
	return nil
}

// positive instance for the sepTable model (class 1 side).
var testInstances = [][]float64{{2.0, 0.0}, {-2.0, 0.0}}
