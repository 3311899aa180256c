package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/ml"
	"repro/internal/service"
	"repro/internal/xai"
)

// connections bounds the generator's concurrent connections (and
// closed-loop clients) to the vCPU count of the 2-vCPU VM the rates
// below were chosen on.
const connections = 2

// Trickle: one fixed rate, about a fifth of the rate at which two
// connections saturate the gateway -> MLService path.
const trickleRPS = 100

// Ladder rungs (requests per second) and the share of the run each
// gets. Two connections saturate this path at roughly 400-480 req/s on
// a 2-vCPU VM. Rung 3 is the nominal rate, the highest
// below saturation; it sits at about a quarter of saturation because on
// a shared VM the latency of busier rungs swings with host CPU steal
// (at 300 req/s the median moved by half between runs). It gets the
// largest share so its percentiles rest on enough samples. Rung 4 is
// well past saturation; a change that raises capacity past it shows as
// a jump in goodput.
var (
	ladderRPS   = []float64{40, 80, 120, 560}
	ladderShare = []float64{0.1, 0.1, 0.6, 0.2}
)

const (
	nominalRung  = 2     // index into ladderRPS
	ladderLimit  = 100.0 // p99 latency limit in ms for goodput
	promoteEvery = 2500 * time.Millisecond
)

// modelSeed fixes the training draws and model seeds: the trained
// models are the deployment, identical on every run, while --seed
// drives the traffic (instances, request sizes and mix, arrival times).
const modelSeed = 1

// Fig. 8(c) request parameters.
const (
	shapSamples = 300
	limeSamples = 1200
	shapBG      = 4
)

// env is one deployed workload plus the benchmark's own copies of its
// models and the request pool with expected answers.
type env struct {
	st   *stack
	reqs []*request

	// probe inputs: the model kinds this workload serves and the
	// request shapes the layer ladder walks down (the first one's rungs
	// are reported as metrics).
	kinds   []kind
	targets []target
	explain *explainProbe

	// ladder writer state: both rf versions and their envelopes.
	rf2     ml.Classifier
	rfBlobs [2][]byte
}

// target is one request shape the layer-ladder probe sends.
type target struct {
	name         string
	prefix, path string // gateway route and the path below it
	body         []byte
	// predict targets
	ref   string
	model ml.Classifier
	X     [][]float64
	// explain targets
	method, algo string
}

func predictTarget(name, ref string, model ml.Classifier, X [][]float64) (target, error) {
	body, err := predictBody(ref, X)
	return target{name: name, prefix: "/ml", path: "/predict", body: body, ref: ref, model: model, X: X}, err
}

// kind is one trained model the ml-layer probe measures.
type kind struct {
	name  string
	model ml.Classifier
	rows  [][]float64
}

func (e *env) close() { e.st.close() }

// workload is one traffic mix.
type workload struct {
	name string
	// setup generates data, trains, deploys, registers and warms up; it
	// is what setup_s times.
	setup func(seed int64, t *tracer) (*env, error)
	// prepare builds the request pool and its expected answers; it is
	// the benchmark's own work and is not timed.
	prepare func(e *env, seed int64) error
	// measure drives load for dur. nominalOnly restricts a multi-rate
	// workload to its nominal rate (the traced phase).
	measure func(e *env, s *sender, seed int64, dur time.Duration, nominalOnly bool) (*result, error)
}

// rungResult is one fixed-rate stage of an open loop.
type rungResult struct {
	rate     float64
	dur      time.Duration
	samples  []sample
	p50, p99 float64
	okRPS    float64
	growing  bool
	failFrac float64
}

// result is one measurement phase.
type result struct {
	// main holds the samples the headline latencies are taken from: the
	// fixed rate, the nominal rung, or every closed-loop request.
	main     []sample
	all      counts
	rungs    []rungResult
	goodput  float64
	promotes []float64 // PromoteAll latencies in ms
	lagP99   float64   // generator lateness over main, in ms
}

var workloads = []workload{
	{name: "predict-trickle", setup: setupTrickle, prepare: prepareTrickle, measure: measureTrickle},
	{name: "predict-ladder", setup: setupLadder, prepare: prepareLadder, measure: measureLadder},
	{name: "explain-fig8c", setup: setupFig8c, prepare: prepareFig8c, measure: measureFig8c},
}

// uc2Data builds the network-activity task (d=21) with min-max scaled
// features, as use case 2 trains on.
func uc2Data(seed int64) (train, test *dataset.Table, err error) {
	cfg := datagen.DefaultNetTrafficConfig()
	cfg.Seed = seed
	tb, _, err := datagen.NetTraffic(cfg)
	if err != nil {
		return nil, nil, err
	}
	train, test, err = tb.StratifiedSplit(rand.New(rand.NewSource(seed)), 0.73)
	if err != nil {
		return nil, nil, err
	}
	sc, err := dataset.FitMinMax(train)
	if err != nil {
		return nil, nil, err
	}
	if err := sc.Transform(train); err != nil {
		return nil, nil, err
	}
	if err := sc.Transform(test); err != nil {
		return nil, nil, err
	}
	return train, test, nil
}

// uc1Data draws n fall-detection windows (d=453).
func uc1Data(seed int64, n int) (*dataset.Table, error) {
	return datagen.UniMiBBinary(datagen.UniMiBConfig{Samples: n, Seed: seed})
}

func fit(algo string, seed int64, train *dataset.Table) (ml.Classifier, error) {
	m, err := ml.NewByName(algo, seed)
	if err != nil {
		return nil, err
	}
	if err := m.Fit(train); err != nil {
		return nil, fmt.Errorf("fit %s: %w", algo, err)
	}
	return m, nil
}

// warm sends each request once, sequentially, and fails on any error:
// connections, model lines and replica caches are hot before timing.
func warm(s *sender, reqs []*request) error {
	for _, rq := range reqs {
		if out, _, _ := s.do(rq); out != outOK {
			return fmt.Errorf("warm-up request to %s failed (outcome %d)", rq.path, out)
		}
	}
	return nil
}

// predictCheck accepts a predict response equal, bit for bit, to one of
// the alternative expected probability matrices (two live versions
// during a promote) with matching argmax classes.
func predictCheck(alts ...[][]float64) func([]byte) bool {
	return func(body []byte) bool {
		var resp service.PredictResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return false
		}
		for _, want := range alts {
			if rowsEqual(resp.Probs, want) && classesMatch(resp.Classes, want) {
				return true
			}
		}
		return false
	}
}

func rowsEqual(got, want [][]float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if !bitsEqual(got[i], want[i]) {
			return false
		}
	}
	return true
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for j := range a {
		if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
			return false
		}
	}
	return true
}

func classesMatch(got []int, probs [][]float64) bool {
	want := ml.ArgmaxAll(probs)
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

func predictBody(ref string, X [][]float64) ([]byte, error) {
	return json.Marshal(service.PredictRequest{ModelID: ref, Instances: X})
}

// ---- predict-trickle ------------------------------------------------

func setupTrickle(seed int64, t *tracer) (_ *env, err error) {
	train, _, err := uc2Data(modelSeed)
	if err != nil {
		return nil, err
	}
	_, test, err := uc2Data(seed)
	if err != nil {
		return nil, err
	}
	rf, err := fit("rf", modelSeed, train)
	if err != nil {
		return nil, err
	}
	e := &env{st: newStack()}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	metrics, err := ml.Evaluate(rf, test)
	if err != nil {
		return nil, err
	}
	if _, err := e.st.sys.ML.StoreModel("rf", rf, metrics); err != nil {
		return nil, err
	}
	if err := e.st.route(t, "/ml", "service", e.st.sys.ML); err != nil {
		return nil, err
	}
	if err := e.st.start(t); err != nil {
		return nil, err
	}
	e.kinds = []kind{{name: "uc2_rf", model: rf, rows: test.X}}
	tg, err := predictTarget("uc2_rf", "rf", rf, test.X[:1])
	if err != nil {
		return nil, err
	}
	e.targets = []target{tg}
	s := newSender(e.st.gateway, connections)
	defer s.close()
	warmReqs := make([]*request, 0, 32)
	for i := 0; i < 32; i++ {
		body, err := predictBody("rf", test.X[i%len(test.X):i%len(test.X)+1])
		if err != nil {
			return nil, err
		}
		warmReqs = append(warmReqs, &request{path: "/ml/predict", body: body})
	}
	if err := warm(s, warmReqs); err != nil {
		return nil, err
	}
	return e, nil
}

func prepareTrickle(e *env, seed int64) error {
	rows := e.kinds[0].rows
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 512; i++ {
		X := [][]float64{rows[rng.Intn(len(rows))]}
		body, err := predictBody("rf", X)
		if err != nil {
			return err
		}
		want := ml.PredictProbaAll(e.kinds[0].model, X)
		e.reqs = append(e.reqs, &request{path: "/ml/predict", body: body, check: predictCheck(want)})
	}
	return nil
}

func measureTrickle(e *env, s *sender, seed int64, dur time.Duration, _ bool) (*result, error) {
	rng := rand.New(rand.NewSource(seed + 101))
	r := runRung(e, s, rng, trickleRPS, dur)
	res := &result{main: r.samples, rungs: []rungResult{r}, goodput: r.okRPS}
	res.all.add(r.samples)
	res.lagP99 = quantile(lags(r.samples), 0.99)
	return res, nil
}

// runRung drives one fixed-rate open-loop stage over e's request pool.
func runRung(e *env, s *sender, rng *rand.Rand, rate float64, dur time.Duration) rungResult {
	sched := poissonSchedule(rng, rate, dur)
	off := rng.Intn(len(e.reqs))
	ss := openLoop(s, sched, connections, func(i int) *request { return e.reqs[(off+i)%len(e.reqs)] })
	lat := latencies(ss)
	var c counts
	c.add(ss)
	// A backlog drains after the stage ends, so the achieved rate is
	// taken from the first arrival to the last reply.
	last := ss[0].end
	for _, s := range ss {
		if s.end.After(last) {
			last = s.end
		}
	}
	r := rungResult{rate: rate, dur: dur, samples: ss,
		p50: quantile(lat, 0.5), p99: quantile(lat, 0.99),
		okRPS: float64(c.ok) / last.Sub(ss[0].due).Seconds(), failFrac: c.failFrac()}
	// The backlog grows when requests due in the stage's last fifth
	// still wait for a free connection: below saturation the median
	// such request is sent on time.
	var tail []float64
	for i, s := range ss {
		if sched[i] >= dur*4/5 {
			tail = append(tail, ms(s.lag()))
		}
	}
	r.growing = quantile(tail, 0.5) > 5
	return r
}

// ---- predict-ladder -------------------------------------------------

func setupLadder(seed int64, t *tracer) (_ *env, err error) {
	train, err := uc1Data(modelSeed, 300)
	if err != nil {
		return nil, err
	}
	test, err := uc1Data(seed, 300)
	if err != nil {
		return nil, err
	}
	models := map[string]ml.Classifier{}
	for _, m := range []struct {
		name, algo string
		seed       int64
	}{{"rf1", "rf", modelSeed}, {"rf2", "rf", modelSeed + 1}, {"lgbm", "lgbm", modelSeed}, {"lr", "lr", modelSeed}} {
		if models[m.name], err = fit(m.algo, m.seed, train); err != nil {
			return nil, err
		}
	}
	e := &env{st: newStack(), rf2: models["rf2"]}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	if err := e.st.startCluster(t, 3); err != nil {
		return nil, err
	}
	c := e.st.cluster
	for _, reg := range []struct{ alias, model string }{{"rf", "rf1"}, {"rf", "rf2"}, {"lgbm", "lgbm"}, {"lr", "lr"}} {
		if _, err := c.Register(reg.alias, models[reg.model]); err != nil {
			return nil, err
		}
	}
	for i, name := range []string{"rf1", "rf2"} {
		if e.rfBlobs[i], err = ml.MarshalModel(models[name]); err != nil {
			return nil, err
		}
	}
	if err := e.st.route(t, "/ml", "cluster", c.Handler()); err != nil {
		return nil, err
	}
	if err := e.st.start(t); err != nil {
		return nil, err
	}
	e.kinds = []kind{
		{name: "uc1_rf", model: models["rf1"], rows: test.X},
		{name: "uc1_lgbm", model: models["lgbm"], rows: test.X},
		{name: "uc1_lr", model: models["lr"], rows: test.X},
	}
	for _, k := range e.kinds {
		alias := strings.TrimPrefix(k.name, "uc1_")
		tg, err := predictTarget(k.name, alias, k.model, test.X[:4])
		if err != nil {
			return nil, err
		}
		e.targets = append(e.targets, tg)
	}
	// Warm every alias on every replica it can route to: the first
	// predict on a replica deserializes the pushed envelope.
	s := newSender(e.st.gateway, connections)
	defer s.close()
	var warmReqs []*request
	for i := 0; i < 8; i++ {
		for _, alias := range []string{"rf", "rf@2", "lgbm", "lr"} {
			body, err := predictBody(alias, test.X[i:i+1+i%4])
			if err != nil {
				return nil, err
			}
			warmReqs = append(warmReqs, &request{path: "/ml/predict", body: body})
		}
	}
	if err := warm(s, warmReqs); err != nil {
		return nil, err
	}
	return e, nil
}

// ladderSize maps u in [0,1) to a request's instance count: half the
// requests carry one instance, the rest follow a heavy (Pareto, alpha 1)
// tail from 2 to 32.
func ladderSize(u float64) int {
	if u < 0.5 {
		return 1
	}
	v := (u - 0.5) * 2
	k := int(2 / (1 - v*(1-2.0/33)))
	if k > 32 {
		k = 32
	}
	return k
}

// ladderMix is the alias mix: rf gets half the requests, lgbm and lr a
// quarter each.
var ladderMix = []struct {
	alias string
	n     int
}{{"rf", 256}, {"lgbm", 128}, {"lr", 128}}

// prepareLadder builds the request pool. Sizes are stratified within
// each alias, so every seed gets the same size distribution and alias
// mix; the seed picks the instances, the pairing and the order.
func prepareLadder(e *env, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	rows := e.kinds[0].rows
	models := map[string][]ml.Classifier{
		"rf":   {e.kinds[0].model, e.rf2},
		"lgbm": {e.kinds[1].model},
		"lr":   {e.kinds[2].model},
	}
	for _, m := range ladderMix {
		for _, p := range rng.Perm(m.n) {
			k := ladderSize((float64(p) + rng.Float64()) / float64(m.n))
			X := make([][]float64, k)
			for j := range X {
				X[j] = rows[rng.Intn(len(rows))]
			}
			var alts [][][]float64
			for _, model := range models[m.alias] {
				alts = append(alts, ml.PredictProbaAll(model, X))
			}
			body, err := predictBody(m.alias, X)
			if err != nil {
				return err
			}
			e.reqs = append(e.reqs, &request{label: m.alias, path: "/ml/predict", body: body, check: predictCheck(alts...)})
		}
	}
	rng.Shuffle(len(e.reqs), func(i, j int) { e.reqs[i], e.reqs[j] = e.reqs[j], e.reqs[i] })
	return nil
}

func measureLadder(e *env, s *sender, seed int64, dur time.Duration, nominalOnly bool) (*result, error) {
	rng := rand.New(rand.NewSource(seed + 202))
	res := &result{}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var writeErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		res.promotes, writeErr = promoteWriter(e, stop)
	}()
	for i, rate := range ladderRPS {
		share := ladderShare[i]
		if nominalOnly {
			if i != nominalRung {
				continue
			}
			share = 1
		}
		r := runRung(e, s, rng, rate, time.Duration(float64(dur)*share))
		res.rungs = append(res.rungs, r)
		res.all.add(r.samples)
		if i == nominalRung {
			res.main = r.samples
		}
		if r.p99 <= ladderLimit && r.failFrac == 0 && !r.growing {
			res.goodput = r.okRPS
		}
	}
	close(stop)
	wg.Wait()
	if writeErr != nil {
		return nil, writeErr
	}
	res.lagP99 = quantile(lags(res.main), 0.99)
	return res, nil
}

// promoteWriter alternates the rf alias between its two trained
// versions until stop: each cycle pushes the other envelope as a new
// version through the coordinator and promotes it cluster-wide through
// the gateway.
func promoteWriter(e *env, stop <-chan struct{}) ([]float64, error) {
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()
	var out []float64
	tick := time.NewTicker(promoteEvery)
	defer tick.Stop()
	for n := 1; ; n++ {
		select {
		case <-stop:
			return out, nil
		case <-tick.C:
		}
		ref, err := e.st.cluster.RegisterBytes("rf", "rf", e.rfBlobs[n%2])
		if err != nil {
			return out, fmt.Errorf("push rf: %w", err)
		}
		body, err := json.Marshal(service.PromoteRequest{Name: "rf", Version: ref.Version})
		if err != nil {
			return out, err
		}
		start := time.Now()
		resp, err := client.Post(e.st.gateway+"/ml/cluster/promote", "application/json", bytes.NewReader(body))
		if err != nil {
			return out, fmt.Errorf("promote: %w", err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return out, fmt.Errorf("promote rf@%d: status %d", ref.Version, resp.StatusCode)
		}
		out = append(out, ms(time.Since(start)))
	}
}

// ---- explain-fig8c --------------------------------------------------

// explainProbe holds what the xai-layer probe needs.
type explainProbe struct {
	models map[string]ml.Classifier
	blobs  map[string][]byte
	x      [][]float64
	y      []int
	bg     [][]float64
	scale  []float64
	seed   int64
}

func setupFig8c(seed int64, t *tracer) (_ *env, err error) {
	train, _, err := uc2Data(modelSeed)
	if err != nil {
		return nil, err
	}
	_, test, err := uc2Data(seed)
	if err != nil {
		return nil, err
	}
	ep := &explainProbe{models: map[string]ml.Classifier{}, blobs: map[string][]byte{}, seed: seed}
	for _, algo := range []string{"nn", "rf"} {
		if ep.models[algo], err = fit(algo, modelSeed, train); err != nil {
			return nil, err
		}
		if ep.blobs[algo], err = ml.MarshalModel(ep.models[algo]); err != nil {
			return nil, err
		}
	}
	ep.x, ep.y, ep.bg = test.X[5:11], test.Y[5:11], test.X[1:1+shapBG]
	ep.scale = make([]float64, len(test.X[0]))
	for i := range ep.scale {
		ep.scale[i] = 1
	}
	e := &env{st: newStack(), explain: ep}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	if err := e.st.route(t, "/shap", "service", e.st.sys.SHAP); err != nil {
		return nil, err
	}
	if err := e.st.route(t, "/lime", "service", e.st.sys.LIME); err != nil {
		return nil, err
	}
	if err := e.st.start(t); err != nil {
		return nil, err
	}
	e.kinds = []kind{{name: "uc2_rf", model: ep.models["rf"], rows: test.X}, {name: "uc2_nn", model: ep.models["nn"], rows: test.X}}
	for _, m := range fig8cMix {
		body, err := ep.body(m.method, m.algo, 0)
		if err != nil {
			return nil, err
		}
		prefix, path, _ := strings.Cut(explainPath(m.method)[1:], "/")
		e.targets = append(e.targets, target{name: m.method + "-" + m.algo, prefix: "/" + prefix, path: "/" + path,
			body: body, method: m.method, algo: m.algo})
	}
	s := newSender(e.st.gateway, connections)
	defer s.close()
	var warmReqs []*request
	for _, method := range []string{"shap", "lime"} {
		for _, algo := range []string{"nn", "rf"} {
			body, err := ep.body(method, algo, 0)
			if err != nil {
				return nil, err
			}
			warmReqs = append(warmReqs, &request{path: explainPath(method), body: body})
		}
	}
	if err := warm(s, warmReqs); err != nil {
		return nil, err
	}
	return e, nil
}

func explainPath(method string) string {
	if method == "shap" {
		return "/shap/explain"
	}
	return "/lime/explain/tabular"
}

// body encodes the Fig. 8(c) request for instance i with the model
// sent inline.
func (ep *explainProbe) body(method, algo string, i int) ([]byte, error) {
	if method == "shap" {
		return json.Marshal(service.SHAPRequest{Model: ep.blobs[algo], Instance: ep.x[i], Class: ep.y[i],
			Background: ep.bg, Samples: shapSamples, Seed: ep.seed})
	}
	return json.Marshal(service.LIMETabularRequest{Model: ep.blobs[algo], Instance: ep.x[i], Class: ep.y[i],
		Scale: ep.scale, Samples: limeSamples, Seed: ep.seed})
}

// explainer builds the direct xai call the service performs for the
// same request.
func (ep *explainProbe) explainer(method string, model ml.Classifier) xai.Explainer {
	if method == "shap" {
		return &xai.KernelSHAP{Model: model, Background: ep.bg, Samples: shapSamples, Seed: ep.seed}
	}
	return &xai.TabularLIME{Model: model, Scale: ep.scale, Samples: limeSamples, Seed: ep.seed}
}

// fig8cMix lists the request classes.
var fig8cMix = []struct{ method, algo string }{
	{"shap", "nn"}, {"lime", "rf"}, {"lime", "nn"}, {"shap", "rf"},
}

// fig8cPerInstance lists the requests made per instance, as indexes
// into fig8cMix: SHAP and LIME equally often, and the nn model (the one
// Fig. 8(c) explains) twice as often as rf. With an even nn/rf split
// the median fell in the gap between the fast rf and the slow nn
// classes, where it swung by twice as much as any class's own median
// between runs.
var fig8cPerInstance = []int{0, 1, 0, 2, 3, 2}

// fig8cBlocks is how many shuffled copies of the request pool make up
// the send order: more than a 30 s run sends.
const fig8cBlocks = 64

// prepareFig8c builds the pool (fig8cPerInstance for every instance)
// and the send order: block after block, a seeded shuffle of the whole
// pool. Each block keeps the mix exact, and which classes the two
// clients run side by side varies. Sent in a fixed cycle, the clients
// fell into step: the pairing held for a whole run and differed between
// runs, and the median over CPU time per request moved with it.
func prepareFig8c(e *env, seed int64) error {
	ep := e.explain
	var pool []*request
	for i := range ep.x {
		byClass := make([]*request, len(fig8cMix))
		for c, m := range fig8cMix {
			want, err := ep.explainer(m.method, ep.models[m.algo]).Explain(ep.x[i], ep.y[i])
			if err != nil {
				return err
			}
			body, err := ep.body(m.method, m.algo, i)
			if err != nil {
				return err
			}
			byClass[c] = &request{label: m.method + "-" + m.algo, path: explainPath(m.method), body: body, check: explainCheck(want)}
		}
		for _, c := range fig8cPerInstance {
			pool = append(pool, byClass[c])
		}
	}
	rng := rand.New(rand.NewSource(seed + 303))
	for b := 0; b < fig8cBlocks; b++ {
		for _, k := range rng.Perm(len(pool)) {
			e.reqs = append(e.reqs, pool[k])
		}
	}
	return nil
}

func explainCheck(want []float64) func([]byte) bool {
	return func(body []byte) bool {
		var resp service.ExplainResponse
		return json.Unmarshal(body, &resp) == nil && bitsEqual(resp.Attribution, want)
	}
}

func measureFig8c(e *env, s *sender, seed int64, dur time.Duration, _ bool) (*result, error) {
	ss := closedLoop(s, connections, dur, func(i int) *request { return e.reqs[i%len(e.reqs)] })
	res := &result{main: ss}
	res.all.add(ss)
	res.goodput = float64(res.all.ok) / dur.Seconds()
	lat := latencies(ss)
	res.rungs = []rungResult{{rate: float64(len(ss)) / dur.Seconds(), dur: dur, samples: ss,
		p50: quantile(lat, 0.5), p99: quantile(lat, 0.99), okRPS: res.goodput, failFrac: res.all.failFrac()}}
	return res, nil
}
