package main

import (
	"fmt"
	"math"
	"net/http"
	"time"
)

// Shares of --seconds given to each part of a traced run.
const (
	untracedShare = 0.4
	tracedShare   = 0.35
	ladderProbe   = 0.15
	kernelProbe   = 0.05
)

// probeRungNames and kernelNames fix the per-layer metric set: a rung or
// model kind a workload does not exercise reports 0.
var (
	probeRungNames = []string{"kernel", "runtime", "handler", "cluster", "http", "gateway"}
	kernelNames    = []string{"uc1_rf", "uc1_lgbm", "uc1_lr", "uc2_rf", "uc2_nn"}
)

// counters is a snapshot of the stack's own telemetry, read through
// Registry.Gather.
type counters struct {
	gatewayReqs, gatewayShed float64
	instances, shed, cold    float64
	batches                  uint64
	batchSum                 float64
	reroutes                 float64
}

func readCounters(st *stack) counters {
	var c counters
	gw := st.sys.Gateway.Telemetry()
	c.gatewayReqs, _, _ = gather("spatial_gateway_requests_total", gw)
	c.gatewayShed, _, _ = gather("spatial_gateway_upstream_shed_total", gw)
	regs := st.servingRegistries()
	c.instances, _, _ = gather("spatial_serving_predictions_total", regs...)
	c.shed, _, _ = gather("spatial_serving_shed_total", regs...)
	c.cold, _, _ = gather("spatial_serving_cold_loads_total", regs...)
	_, c.batchSum, c.batches = gather("spatial_serving_batch_size", regs...)
	if st.clusterT != nil {
		c.reroutes, _, _ = gather("spatial_cluster_reroutes_total", st.clusterT)
	}
	return c
}

// perLayer runs the traced measurement: an untraced phase (generator
// and rung metrics, and the untraced median), a traced phase at the
// nominal rate (spans joined by trace ID into per-layer self times),
// then the sequential layer-ladder and kernel probes.
func (b *bench) perLayer(outDir string) error {
	t := &tracer{}
	if _, err := b.setup(t); err != nil {
		return err
	}
	defer b.e.close()
	st := b.e.st
	s := newSender(st.gateway, connections)
	defer s.close()
	c0 := readCounters(st)

	plain, err := b.w.measure(b.e, s, b.seed, scale(b.dur, untracedShare), false)
	if err != nil {
		return err
	}
	printRungs(plain)
	s.traced = true
	traced, err := b.w.measure(b.e, s, b.seed+1, scale(b.dur, tracedShare), true)
	if err != nil {
		return err
	}
	s.traced = false
	spans := t.take()
	c1 := readCounters(st)
	b.all = plain.all
	b.all.add(traced.main)
	if err := writeTrace(outDir, b.w.name, b.seed, traced.main, spans); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}

	b.genMetrics(plain)
	b.traceMetrics(plain, traced, spans, t)
	batchMean := b.servingMetrics(st, c0, c1)
	b.set("gateway.requests", c1.gatewayReqs-c0.gatewayReqs, "count")
	b.set("gateway.upstream_shed", c1.gatewayShed-c0.gatewayShed, "count")
	b.set("cluster.reroutes", c1.reroutes-c0.reroutes, "count")
	b.set("cluster.promotes", float64(len(plain.promotes)+len(traced.promotes)), "count")
	b.set("cluster.promote_p50_ms", median(append(plain.promotes, traced.promotes...)), "ms")

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}, Timeout: time.Minute}
	defer client.CloseIdleConnections()
	// Every target is probed and printed; the first one's rungs are the
	// reported metrics.
	for i, tg := range b.e.targets {
		rungs, err := layerLadder(b.e, tg, client)
		if err != nil {
			return err
		}
		perRung := scale(b.dur, ladderProbe) / time.Duration(len(rungs)*len(b.e.targets))
		stats, err := probeRungs(rungs, perRung, 2000)
		if err != nil {
			return err
		}
		printProbe(tg.name, stats)
		if i == 0 {
			b.ladderMetrics(tg, stats)
		}
	}
	b.kernelMetrics(probeKernels(b.e.kinds, int(math.Round(batchMean)), scale(b.dur, kernelProbe)))
	return b.xaiMetrics()
}

func scale(d time.Duration, f float64) time.Duration { return time.Duration(float64(d) * f) }

func (b *bench) genMetrics(res *result) {
	c := res.all
	b.set("gen.lag_p99_ms", res.lagP99, "ms")
	b.set("gen.sent", float64(c.sent), "count")
	b.set("gen.ok", float64(c.ok), "count")
	b.set("gen.failed", float64(c.failed), "count")
	b.set("gen.shed", float64(c.shed), "count")
	b.set("gen.wrong", float64(c.wrong), "count")
	b.set("gen.fail_frac", c.failFrac(), "ratio")
	for i := 0; i < 4; i++ {
		var r rungResult
		if i < len(res.rungs) {
			r = res.rungs[i]
		}
		p := fmt.Sprintf("gen.rung%d.", i+1)
		b.set(p+"rate_rps", r.rate, "1/s")
		b.set(p+"p50_ms", r.p50, "ms")
		b.set(p+"p99_ms", r.p99, "ms")
	}
}

// traceSpans is one request's spans from the benchmark's wrappers.
type traceSpans struct {
	gateway, cluster, service *span
	backends                  []span
}

func us(s span) float64 { return float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3 }

// selfTimes joins the generator's samples with the recorded spans by
// trace ID and returns each layer's self time per request (µs) along the
// blocking path: client (due time to reply, less the gateway span),
// gateway, then either service or cluster and its backends. A layer's
// self time is its span less the child spans inside it, so per request
// the layers add up to the end-to-end latency exactly.
func selfTimes(ss []sample, spans []span) (map[string][]float64, []float64) {
	byID := map[string]*traceSpans{}
	for i := range spans {
		sp := &spans[i]
		ts := byID[sp.TraceID]
		if ts == nil {
			ts = &traceSpans{}
			byID[sp.TraceID] = ts
		}
		switch sp.Layer {
		case "gateway":
			ts.gateway = sp
		case "cluster":
			ts.cluster = sp
		case "service":
			ts.service = sp
		case "backend":
			ts.backends = append(ts.backends, *sp)
		}
	}
	self := map[string][]float64{}
	var e2e []float64
	for _, s := range ss {
		ts := byID[s.traceID]
		if s.out != outOK || ts == nil || ts.gateway == nil || (ts.cluster == nil && ts.service == nil) {
			continue
		}
		total := float64(s.latency().Nanoseconds()) / 1e3
		gw := us(*ts.gateway)
		e2e = append(e2e, total)
		self["client"] = append(self["client"], total-gw)
		var child float64
		switch {
		case ts.cluster != nil:
			child = us(*ts.cluster)
			var backend float64
			for _, bs := range ts.backends {
				backend += us(bs)
			}
			self["cluster"] = append(self["cluster"], child-backend)
			self["backend"] = append(self["backend"], backend)
		case ts.service != nil:
			child = us(*ts.service)
			self["service"] = append(self["service"], child)
		}
		self["gateway"] = append(self["gateway"], gw-child)
	}
	return self, e2e
}

func (b *bench) traceMetrics(plain, traced *result, spans []span, t *tracer) {
	self, e2e := selfTimes(traced.main, spans)
	untracedP50 := quantile(latencies(plain.main), 0.5)
	tracedP50 := quantile(e2e, 0.5) / 1e3
	b.set("trace.self_sum_frac", medianBandSum(self, e2e)/1e3/tracedP50, "ratio")
	b.set("trace.requests", float64(len(e2e)), "count")
	b.set("trace.spans", float64(len(spans)), "count")
	b.set("trace.e2e_p50_ms", tracedP50, "ms")
	b.set("trace.untraced_p50_ms", untracedP50, "ms")
	b.set("trace.overhead_frac", tracedP50/untracedP50-1, "ratio")
	b.set("client.self_p50_us", quantile(self["client"], 0.5), "us")
	b.set("gateway.self_p50_us", quantile(self["gateway"], 0.5), "us")
	b.set("gateway.self_p99_us", quantile(self["gateway"], 0.99), "us")
	b.set("cluster.self_p50_us", quantile(self["cluster"], 0.5), "us")
	b.set("cluster.backend_p50_us", quantile(self["backend"], 0.5), "us")
	b.set("service.self_p50_us", quantile(self["service"], 0.5), "us")
	preds := t.predicts.Load()
	b.set("cluster.predicts", float64(preds), "count")
	b.set("cluster.owner_frac", ratio(float64(t.ownerHits.Load()), float64(preds)), "ratio")
}

// traceLayers are the layers on a request's blocking path.
var traceLayers = []string{"client", "gateway", "cluster", "backend", "service"}

// medianBandSum decomposes the median request: over the requests whose
// end-to-end latency lies between the 45th and 55th percentile, it sums
// each layer's mean self time (µs). Since a request's self times add up
// to its latency, this lands on the traced median up to the band width.
func medianBandSum(self map[string][]float64, e2e []float64) float64 {
	lo, hi := quantile(e2e, 0.45), quantile(e2e, 0.55)
	var sum float64
	for _, l := range traceLayers {
		var band []float64
		for i, v := range self[l] {
			if e2e[i] >= lo && e2e[i] <= hi {
				band = append(band, v)
			}
		}
		sum += mean(band)
	}
	return sum
}

func ratio(a, base float64) float64 {
	if base == 0 {
		return 0
	}
	return a / base
}

// servingMetrics reports the serving runtimes' own telemetry over both
// load phases and returns the mean batch size.
func (b *bench) servingMetrics(st *stack, c0, c1 counters) float64 {
	inst := c1.instances - c0.instances
	shed := c1.shed - c0.shed
	batches := float64(c1.batches - c0.batches)
	batchMean := ratio(c1.batchSum-c0.batchSum, batches)
	b.set("serving.instances", inst, "count")
	b.set("serving.batches", batches, "count")
	b.set("serving.batch_size_mean", batchMean, "count")
	b.set("serving.shed_frac", ratio(shed, inst+shed), "ratio")
	b.set("serving.cold_loads", c1.cold-c0.cold, "count")
	b.set("serving.batch_latency_p50_us", histQuantile("spatial_serving_batch_latency_seconds", 0.5, st.servingRegistries()...)*1e6, "us")
	return batchMean
}

func printProbe(target string, stats []rungStat) {
	for _, r := range stats {
		fmt.Printf("# probe %-8s %-8s n=%-5d p50 %10.1f us  p99 %10.1f us  %10.0f B/op  %7.1f allocs/op\n",
			target, r.name, r.n, r.p50, r.p99, r.bPerOp, r.allocsPerOp)
	}
}

func (b *bench) ladderMetrics(tg target, stats []rungStat) {
	byName := map[string]rungStat{}
	for _, r := range stats {
		byName[r.name] = r
	}
	for _, n := range probeRungNames {
		r := byName[n]
		p := "probe." + n + "."
		b.set(p+"p50_us", r.p50, "us")
		b.set(p+"p99_us", r.p99, "us")
		b.set(p+"b_per_op", r.bPerOp, "B")
		b.set(p+"allocs_per_op", r.allocsPerOp, "count")
	}
	kernel, rt, handler, httpR, gw := byName["kernel"], byName["runtime"], byName["handler"], byName["http"], byName["gateway"]
	b.set("serving.predict_p50_us", rt.p50, "us")
	var wait float64
	if rt.n > 0 {
		wait = rt.p50 - kernel.p50
	}
	b.set("serving.wait_p50_us", wait, "us")
	below := rt // the rung the service handler wraps
	if b.e.explain != nil {
		below = kernel
	}
	b.set("service.b_per_req", handler.bPerOp-below.bPerOp, "B")
	b.set("service.allocs_per_req", handler.allocsPerOp-below.allocsPerOp, "count")
	b.set("service.body_kb", float64(len(tg.body))/1024, "KB")
	b.set("gateway.b_per_req", gw.bPerOp-httpR.bPerOp, "B")
	b.set("gateway.allocs_per_req", gw.allocsPerOp-httpR.allocsPerOp, "count")
}

func (b *bench) kernelMetrics(stats []kernelStat) {
	byName := map[string]kernelStat{}
	for _, k := range stats {
		byName[k.name] = k
		fmt.Printf("# kernel %-9s %9.0f ns/row single, %9.0f ns/row at batch %d, %.1f allocs/call\n",
			k.name, k.rowNs, k.batchRowNs, k.batch, k.allocsPerCall)
	}
	for _, n := range kernelNames {
		k := byName[n]
		b.set("ml."+n+".row_ns", k.rowNs, "ns")
		b.set("ml."+n+".batch_row_ns", k.batchRowNs, "ns")
		b.set("ml."+n+".allocs_per_call", k.allocsPerCall, "count")
	}
}

func (b *bench) xaiMetrics() error {
	var x xaiStat
	if ep := b.e.explain; ep != nil {
		var err error
		if x, err = probeXAI(ep, 3); err != nil {
			return err
		}
	}
	b.set("xai.shap_ms", x.shapMs, "ms")
	b.set("xai.lime_ms", x.limeMs, "ms")
	b.set("xai.rows_per_explain", x.rowsPerExplain, "count")
	b.set("xai.model_calls_per_explain", x.modelCallsPerExplain, "count")
	b.set("xai.model_share", x.modelShare, "ratio")
	b.set("service.decode_model_ms", x.decodeModelMs, "ms")
	return nil
}
