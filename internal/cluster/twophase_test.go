package cluster

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/serving"
)

// hangingPrepare wraps a replica so Prepare blocks until the
// coordinator's RPC timeout cancels it — the interrupted-2PC shape of
// the acceptance criteria.
type hangingPrepare struct {
	*Replica
	hang bool
}

func (h *hangingPrepare) Prepare(ctx context.Context, txn, name string, version int, id string, ttl time.Duration) error {
	if h.hang {
		<-ctx.Done()
		return ctx.Err()
	}
	return h.Replica.Prepare(ctx, txn, name, version, id, ttl)
}

// run2PCAbortScenario builds a 3-replica tier whose third replica hangs
// every prepare, attempts a cluster promote on a goroutine, advances the
// fake clock past the RPC timeout to force the abort, and returns the
// resulting cluster state as deterministic JSON.
func run2PCAbortScenario(t *testing.T) (errMsg string, stateJSON []byte) {
	t.Helper()
	tier := newTestTier(t, 2, Config{
		HeartbeatInterval: time.Second,
		RPCTimeout:        2 * time.Second,
		PrepareTTL:        5 * time.Second,
	})
	c := tier.cluster
	// Third member: same replica machinery, but prepares hang.
	hp := &hangingPrepare{Replica: NewReplica("replica-9", serving.Config{Clock: tier.clk})}
	t.Cleanup(hp.Replica.Close)
	if err := c.Join(hp); err != nil {
		t.Fatal(err)
	}

	if _, err := c.Register("demo", trainedModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register("demo", trainedModel(t, 2)); err != nil {
		t.Fatal(err)
	}
	hp.hang = true

	errCh := make(chan error, 1)
	base := tier.clk.Pending()
	go func() { errCh <- c.PromoteAll("demo", 2) }()
	// The promote prepares the two healthy replicas (one timeout waiter
	// each, resolved immediately) and then blocks on the hanging third —
	// three new waiters from the base count.
	tier.clk.BlockUntil(base + 3)
	tier.clk.Advance(2*time.Second + time.Millisecond)
	err := <-errCh
	if err == nil {
		t.Fatal("promote with a hanging prepare succeeded; want abort")
	}

	// Canonical and every replica must still serve version 1.
	type replicaState struct {
		ID      string              `json:"id"`
		Aliases []serving.AliasInfo `json:"aliases"`
	}
	var state struct {
		Canonical []serving.AliasInfo `json:"canonical"`
		Replicas  []replicaState      `json:"replicas"`
	}
	state.Canonical = c.Canonical().Aliases()
	for _, rp := range append(tier.replicas, hp.Replica) {
		aliases, aerr := rp.Aliases(context.Background())
		if aerr != nil {
			t.Fatal(aerr)
		}
		state.Replicas = append(state.Replicas, replicaState{ID: rp.ID(), Aliases: aliases})
	}
	raw, merr := json.Marshal(state)
	if merr != nil {
		t.Fatal(merr)
	}
	return err.Error(), raw
}

// TestTwoPhasePromoteAbortOnPrepareTimeout is the second acceptance
// check: a promote interrupted before commit leaves every replica (and
// the canonical registry) on the old version, byte-identically across
// two runs with the same seed.
func TestTwoPhasePromoteAbortOnPrepareTimeout(t *testing.T) {
	err1, state1 := run2PCAbortScenario(t)
	err2, state2 := run2PCAbortScenario(t)

	if !strings.Contains(err1, "aborted") || !strings.Contains(err1, "replica-9") {
		t.Fatalf("abort error does not name the failing prepare: %s", err1)
	}
	if err1 != err2 {
		t.Fatalf("abort errors differ across seeded runs:\n%s\n%s", err1, err2)
	}
	if string(state1) != string(state2) {
		t.Fatalf("post-abort state differs across seeded runs:\n%s\n%s", state1, state2)
	}
	var state struct {
		Canonical []serving.AliasInfo `json:"canonical"`
		Replicas  []struct {
			ID      string              `json:"id"`
			Aliases []serving.AliasInfo `json:"aliases"`
		} `json:"replicas"`
	}
	if err := json.Unmarshal(state1, &state); err != nil {
		t.Fatal(err)
	}
	if len(state.Canonical) != 1 || state.Canonical[0].Current != 1 {
		t.Fatalf("canonical alias after abort: %+v, want current=1", state.Canonical)
	}
	if len(state.Replicas) != 3 {
		t.Fatalf("captured %d replicas, want 3", len(state.Replicas))
	}
	for _, r := range state.Replicas {
		if len(r.Aliases) != 1 || r.Aliases[0].Current != 1 {
			t.Fatalf("replica %s after abort: %+v, want current=1", r.ID, r.Aliases)
		}
		if len(r.Aliases[0].Versions) != 2 {
			t.Fatalf("replica %s has %d versions, want 2 (replication happened, flip did not)", r.ID, len(r.Aliases[0].Versions))
		}
	}
}

// TestTwoPhasePromoteCommitsEverywhere is the happy path: after
// PromoteAll, every replica and the canonical registry agree.
func TestTwoPhasePromoteCommitsEverywhere(t *testing.T) {
	tier := newTestTier(t, 3, Config{RPCTimeout: 10 * time.Second})
	c := tier.cluster
	if _, err := c.Register("demo", trainedModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register("demo", trainedModel(t, 2)); err != nil {
		t.Fatal(err)
	}
	if err := c.PromoteAll("demo", 2); err != nil {
		t.Fatal(err)
	}
	for _, rp := range tier.replicas {
		aliases, err := rp.Aliases(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if aliases[0].Current != 2 {
			t.Fatalf("replica %s at version %d after promote, want 2", rp.ID(), aliases[0].Current)
		}
	}
	// Rollback restores version 1 cluster-wide, atomically.
	ref, err := c.RollbackAll("demo")
	if err != nil {
		t.Fatal(err)
	}
	if ref.Version != 1 {
		t.Fatalf("rollback restored version %d, want 1", ref.Version)
	}
	for _, rp := range tier.replicas {
		aliases, err := rp.Aliases(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if aliases[0].Current != 1 {
			t.Fatalf("replica %s at version %d after rollback, want 1", rp.ID(), aliases[0].Current)
		}
	}
	// Rolling back with an empty history fails without mutating state.
	if _, err := c.RollbackAll("demo"); err == nil {
		t.Fatal("second rollback succeeded with empty history")
	}
}

// TestPrepareValidation: prepares against wrong content ids or unknown
// versions must fail before anything is staged.
func TestPrepareValidation(t *testing.T) {
	tier := newTestTier(t, 1, Config{RPCTimeout: 10 * time.Second})
	rp := tier.replicas[0]
	if _, err := tier.cluster.Register("demo", trainedModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := rp.Prepare(ctx, "t1", "demo", 99, "sha256:x", time.Second); err == nil {
		t.Fatal("prepare of unknown version succeeded")
	}
	if err := rp.Prepare(ctx, "t2", "demo", 1, "sha256:wrong", time.Second); err == nil {
		t.Fatal("prepare with mismatched content id succeeded")
	}
	if err := rp.Prepare(ctx, "", "demo", 1, "sha256:wrong", time.Second); err == nil {
		t.Fatal("prepare with empty txn succeeded")
	}
	// A staged flip expires after its TTL.
	id := tier.cluster.Canonical().Aliases()[0].Versions[0]
	if err := rp.Prepare(ctx, "t3", "demo", 1, id, time.Second); err != nil {
		t.Fatal(err)
	}
	tier.clk.Advance(2 * time.Second)
	if err := rp.Commit(ctx, "t3"); err == nil {
		t.Fatal("commit of expired txn succeeded")
	}
	// Unknown commits fail, unknown aborts are no-ops.
	if err := rp.Commit(ctx, "never-prepared"); err == nil {
		t.Fatal("commit of unknown txn succeeded")
	}
	if err := rp.Abort(ctx, "never-prepared"); err != nil {
		t.Fatalf("abort of unknown txn: %v", err)
	}
}
