package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/serving"
	"repro/internal/telemetry"
)

// span is one layer's interval of one traced request. Spans live in
// memory and are written out when the run ends.
type span struct {
	TraceID string    `json:"traceId"`
	Layer   string    `json:"layer"`
	Start   time.Time `json:"start"`
	End     time.Time `json:"end"`
}

// tracer collects spans from the benchmark's wrappers around each layer.
type tracer struct {
	mu    sync.Mutex
	spans []span
	// ownerHits counts backend predicts served by the shard owner of the
	// request's model, read through the public Cluster.Owner.
	ownerHits atomic.Int64
	predicts  atomic.Int64
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// tracePrefix marks trace IDs the generator minted. The gateway mints
// IDs for untraced requests too; spans are recorded only for ours.
const tracePrefix = "pb"

func traceIDFor(seq uint64) string { return fmt.Sprintf("%s%030x", tracePrefix, seq) }

// tracedHandler records a span named layer around h for every request
// that carries a trace ID, and hands the ID to h through the context so
// in-process layers below (cluster backends) can join the same trace.
// With a nil tracer h is returned unwrapped: untraced runs measure the
// stack exactly as deployed.
func tracedHandler(t *tracer, layer string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		traceID, _ := telemetry.Extract(r.Header)
		if !strings.HasPrefix(traceID, tracePrefix) {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r.WithContext(telemetry.ContextWithTrace(r.Context(), traceID, layer)))
		t.record(span{TraceID: traceID, Layer: layer, Start: start, End: time.Now()})
	})
}

// tracedBackend wraps one replica as the cluster sees it, recording a
// span per routed predict and whether the shard owner served it.
type tracedBackend struct {
	cluster.Backend
	t *tracer
	c *cluster.Cluster
}

func (b *tracedBackend) Predict(ctx context.Context, ref string, instances [][]float64) ([][]float64, []int, error) {
	traceID, _, ok := telemetry.TraceFromContext(ctx)
	if !ok || !strings.HasPrefix(traceID, tracePrefix) {
		return b.Backend.Predict(ctx, ref, instances)
	}
	start := time.Now()
	probs, classes, err := b.Backend.Predict(ctx, ref, instances)
	end := time.Now()
	b.t.predicts.Add(1)
	if b.c.Owner(ref) == b.ID() {
		b.t.ownerHits.Add(1)
	}
	b.t.record(span{TraceID: traceID, Layer: "backend", Start: start, End: end})
	return probs, classes, err
}

// stack is one in-process deployment on loopback with deployed
// defaults: the gateway and services as core.NewSystem builds them and,
// for the cluster workload, a coordinator over three in-process
// replicas as cmd/spatial-cluster builds it.
type stack struct {
	sys      *core.System
	gateway  string
	upstream map[string]string // route prefix -> upstream base URL

	cluster  *cluster.Cluster
	replicas []*cluster.Replica
	clusterT *telemetry.Registry

	servers []*http.Server
	wg      sync.WaitGroup
}

func newStack() *stack {
	return &stack{
		sys:      core.NewSystem(core.Options{}),
		upstream: make(map[string]string),
	}
}

// serve binds h to a fresh loopback port and returns its base URL.
func (s *stack) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	s.servers = append(s.servers, srv)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Printf("perfbench: serve: %v\n", err)
		}
	}()
	return "http://" + ln.Addr().String(), nil
}

// route serves h on loopback (wrapped in a span named layer when
// traced) and routes prefix to it through the gateway.
func (s *stack) route(t *tracer, prefix, layer string, h http.Handler) error {
	url, err := s.serve(tracedHandler(t, layer, h))
	if err != nil {
		return err
	}
	s.upstream[prefix] = url
	return s.sys.Gateway.AddRoute(prefix, gateway.RoundRobin, url)
}

// startCluster builds the replica tier: three in-process replicas with
// the zero serving.Config behind a coordinator with the zero
// cluster.Config (bar the telemetry registry it exposes).
func (s *stack) startCluster(t *tracer, replicas int) error {
	s.clusterT = telemetry.NewRegistry()
	s.cluster = cluster.New(cluster.Config{Telemetry: s.clusterT})
	for i := 0; i < replicas; i++ {
		rp := cluster.NewReplica(fmt.Sprintf("replica-%d", i), serving.Config{})
		s.replicas = append(s.replicas, rp)
		var b cluster.Backend = rp
		if t != nil {
			b = &tracedBackend{Backend: rp, t: t, c: s.cluster}
		}
		if err := s.cluster.Join(b); err != nil {
			return err
		}
	}
	s.cluster.Start()
	return nil
}

// start binds the gateway and launches its health checker.
func (s *stack) start(t *tracer) error {
	url, err := s.serve(tracedHandler(t, "gateway", s.sys.Gateway))
	if err != nil {
		return err
	}
	s.gateway = url
	s.sys.Gateway.Start()
	return nil
}

func (s *stack) close() {
	s.sys.Gateway.Stop()
	if s.cluster != nil {
		s.cluster.Stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, srv := range s.servers {
		if err := srv.Shutdown(ctx); err != nil {
			_ = srv.Close()
		}
	}
	s.wg.Wait()
	for _, rp := range s.replicas {
		rp.Close()
	}
	s.sys.ML.Close()
}

// gather sums a counter family, or a histogram family's count and sum,
// over every series of the given registries.
func gather(name string, regs ...*telemetry.Registry) (value, sum float64, count uint64) {
	for _, r := range regs {
		if r == nil {
			continue
		}
		for _, f := range r.Gather() {
			if f.Name != name {
				continue
			}
			for _, se := range f.Series {
				value += se.Value
				sum += se.Sum
				count += se.Count
			}
		}
	}
	return value, sum, count
}

// servingRegistries returns the telemetry registries of every serving
// runtime in the stack: the ML service's and each replica's.
func (s *stack) servingRegistries() []*telemetry.Registry {
	regs := []*telemetry.Registry{s.sys.ML.Telemetry()}
	for _, rp := range s.replicas {
		if rt := rp.Runtime(); rt != nil {
			regs = append(regs, rt.Telemetry())
		}
	}
	return regs
}

// histQuantile estimates a quantile over the merged buckets of one
// histogram family across registries.
func histQuantile(name string, q float64, regs ...*telemetry.Registry) float64 {
	var merged *telemetry.Series
	var buckets []uint64
	for _, r := range regs {
		for _, f := range r.Gather() {
			if f.Name != name {
				continue
			}
			for i := range f.Series {
				se := f.Series[i]
				if merged == nil {
					merged = &f.Series[i]
					buckets = append([]uint64(nil), se.BucketCounts...)
					continue
				}
				for j := range buckets {
					if j < len(se.BucketCounts) {
						buckets[j] += se.BucketCounts[j]
					}
				}
				merged.Count += se.Count
			}
		}
	}
	if merged == nil {
		return 0
	}
	merged.BucketCounts = buckets
	return merged.Quantile(q)
}
