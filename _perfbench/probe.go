package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"repro/internal/ml"
)

// rungStat is one rung of the sequential layer ladder: a single caller
// calling one layer's public entry point back to back.
type rungStat struct {
	name        string
	n           int
	p50, p99    float64 // µs
	bPerOp      float64
	allocsPerOp float64
}

type rung struct {
	name string
	call func() error
}

// probeRungs runs each rung sequentially for up to perRung (at most
// maxIter calls) after a short warm-up, timing every call and reading
// allocation counters around the loop.
func probeRungs(rungs []rung, perRung time.Duration, maxIter int) ([]rungStat, error) {
	out := make([]rungStat, 0, len(rungs))
	for _, r := range rungs {
		for i := 0; i < 3; i++ {
			if err := r.call(); err != nil {
				return nil, fmt.Errorf("probe %s: %w", r.name, err)
			}
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		var us []float64
		deadline := time.Now().Add(perRung)
		for len(us) < maxIter && (len(us) < 5 || time.Now().Before(deadline)) {
			t0 := time.Now()
			if err := r.call(); err != nil {
				return nil, fmt.Errorf("probe %s: %w", r.name, err)
			}
			us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		runtime.ReadMemStats(&m1)
		n := float64(len(us))
		out = append(out, rungStat{
			name:        r.name,
			n:           len(us),
			p50:         quantile(us, 0.5),
			p99:         quantile(us, 0.99),
			bPerOp:      float64(m1.TotalAlloc-m0.TotalAlloc) / n,
			allocsPerOp: float64(m1.Mallocs-m0.Mallocs) / n,
		})
	}
	return out, nil
}

// post sends body to url on a one-connection client and requires 200.
func post(c *http.Client, url string, body []byte) error {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, buf.String())
	}
	return nil
}

// inMemory serves body to h through an in-memory recorder, no sockets.
func inMemory(h http.Handler, path string, body []byte) error {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("status %d: %s", rec.Code, rec.Body.String())
	}
	return nil
}

// layerLadder builds the rungs for one target: kernel -> serving
// runtime -> service handler in memory -> loopback HTTP to the routed
// upstream -> gateway, plus the cluster coordinator in process where
// deployed. Explain targets start at a direct xai call.
func layerLadder(e *env, tg target, client *http.Client) ([]rung, error) {
	st := e.st
	var rungs []rung
	if ep := e.explain; ep != nil {
		x := ep.explainer(tg.method, ep.models[tg.algo])
		var svc http.Handler = st.sys.SHAP
		if tg.method == "lime" {
			svc = st.sys.LIME
		}
		rungs = append(rungs,
			rung{"kernel", func() error { _, err := x.Explain(ep.x[0], ep.y[0]); return err }},
			rung{"handler", func() error { return inMemory(svc, tg.path, tg.body) }})
	} else {
		// The ML service hosts the probe model even where the deployed
		// path is the cluster, so the handler rung sees the same wide rows.
		if _, ok := st.sys.ML.Model(tg.ref); !ok {
			if _, err := st.sys.ML.StoreModel(tg.ref, tg.model, ml.Metrics{}); err != nil {
				return nil, err
			}
		}
		rt := st.sys.ML.Runtime()
		rungs = append(rungs,
			rung{"kernel", func() error { ml.PredictProbaAll(tg.model, tg.X); return nil }},
			rung{"runtime", func() error { _, _, err := rt.Predict(context.Background(), tg.ref, tg.X); return err }},
			rung{"handler", func() error { return inMemory(st.sys.ML, tg.path, tg.body) }})
		if st.cluster != nil {
			rungs = append(rungs, rung{"cluster", func() error {
				_, _, err := st.cluster.Predict(context.Background(), tg.ref, tg.X)
				return err
			}})
		}
	}
	up := st.upstream[tg.prefix] + tg.path
	gw := st.gateway + tg.prefix + tg.path
	rungs = append(rungs,
		rung{"http", func() error { return post(client, up, tg.body) }},
		rung{"gateway", func() error { return post(client, gw, tg.body) }})
	return rungs, nil
}

// kernelStat is the ml-layer probe of one model kind.
type kernelStat struct {
	name          string
	rowNs         float64
	batchRowNs    float64
	batch         int
	allocsPerCall float64
}

// probeKernels times each kind's per-instance kernel over its rows and
// its batch kernel at batch size b.
func probeKernels(kinds []kind, b int, budget time.Duration) []kernelStat {
	if b < 1 {
		b = 1
	}
	out := make([]kernelStat, 0, len(kinds))
	for _, k := range kinds {
		per := budget / time.Duration(2*len(kinds))
		rows := k.rows
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		calls := 0
		t0 := time.Now()
		for calls < 200 || time.Since(t0) < per {
			k.model.PredictProba(rows[calls%len(rows)])
			calls++
		}
		single := time.Since(t0)
		runtime.ReadMemStats(&m1)

		bs := b
		if bs > len(rows) {
			bs = len(rows)
		}
		batches := 0
		t1 := time.Now()
		for batches < 20 || time.Since(t1) < per {
			off := (batches * bs) % (len(rows) - bs + 1)
			ml.PredictProbaAll(k.model, rows[off:off+bs])
			batches++
		}
		batched := time.Since(t1)
		out = append(out, kernelStat{
			name:          k.name,
			rowNs:         float64(single.Nanoseconds()) / float64(calls),
			batchRowNs:    float64(batched.Nanoseconds()) / float64(batches*bs),
			batch:         bs,
			allocsPerCall: float64(m1.Mallocs-m0.Mallocs) / float64(calls),
		})
	}
	return out
}

// countingModel counts and times the model calls an explainer makes.
type countingModel struct {
	ml.Classifier
	calls, rows int
	busy        time.Duration
}

func (c *countingModel) PredictProba(x []float64) []float64 {
	t0 := time.Now()
	p := c.Classifier.PredictProba(x)
	c.busy += time.Since(t0)
	c.calls++
	c.rows++
	return p
}

// PredictProbaBatch keeps batched explainers countable: one call, many
// rows.
func (c *countingModel) PredictProbaBatch(X [][]float64) [][]float64 {
	t0 := time.Now()
	p := ml.PredictProbaAll(c.Classifier, X)
	c.busy += time.Since(t0)
	c.calls++
	c.rows += len(X)
	return p
}

// xaiStat is the explainer-layer probe: direct xai calls on the
// benchmark's own models, with the model wrapped to count calls.
type xaiStat struct {
	shapMs, limeMs       float64
	rowsPerExplain       float64
	modelCallsPerExplain float64
	modelShare           float64
	decodeModelMs        float64
}

func probeXAI(ep *explainProbe, rounds int) (xaiStat, error) {
	var st xaiStat
	var explains, calls, rows int
	var busy, total time.Duration
	times := map[string][]float64{}
	for r := 0; r < rounds; r++ {
		for _, m := range fig8cMix {
			cm := &countingModel{Classifier: ep.models[m.algo]}
			i := r % len(ep.x)
			t0 := time.Now()
			if _, err := ep.explainer(m.method, cm).Explain(ep.x[i], ep.y[i]); err != nil {
				return st, err
			}
			el := time.Since(t0)
			times[m.method] = append(times[m.method], ms(el))
			explains++
			calls += cm.calls
			rows += cm.rows
			busy += cm.busy
			total += el
		}
	}
	st.shapMs = mean(times["shap"])
	st.limeMs = mean(times["lime"])
	st.rowsPerExplain = float64(rows) / float64(explains)
	st.modelCallsPerExplain = float64(calls) / float64(explains)
	st.modelShare = busy.Seconds() / total.Seconds()
	// Requests alternate nn and rf envelopes, so the decode cost a
	// request pays is the mean over both.
	var dec []float64
	for r := 0; r < 5*rounds; r++ {
		for _, algo := range []string{"nn", "rf"} {
			t0 := time.Now()
			if _, err := ml.UnmarshalModel(ep.blobs[algo]); err != nil {
				return st, err
			}
			dec = append(dec, ms(time.Since(t0)))
		}
	}
	st.decodeModelMs = mean(dec)
	return st, nil
}
