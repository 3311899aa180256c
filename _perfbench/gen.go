package main

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// outcome classifies one completed request.
type outcome int

const (
	outOK outcome = iota
	outFailed
	outShed
	outWrong
)

// request is one pre-encoded call: the generator only sends bytes, so
// client-side encoding does not compete with the system under test
// during measurement. check validates the answer against the oracle.
type request struct {
	label string // request class, for per-class breakdowns
	path  string
	body  []byte
	check func(body []byte) bool
}

// sample is one request's timeline. due is when an open-loop schedule
// wanted it sent (for closed loops, due == start); latency is measured
// from due, so a stall that delays later requests is counted against
// them instead of hidden (coordinated omission).
type sample struct {
	due, start, end time.Time
	out             outcome
	traceID         string
	label           string
}

func (s sample) latency() time.Duration { return s.end.Sub(s.due) }
func (s sample) lag() time.Duration     { return s.start.Sub(s.due) }

// sender performs requests over a bounded connection pool.
type sender struct {
	client  *http.Client
	baseURL string
	// traced requests carry a fresh X-Trace-Id so the stack's spans can
	// be joined to the generator's own timeline.
	traced bool
	seq    atomic.Uint64
}

func newSender(baseURL string, conns int) *sender {
	tr := &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &sender{client: &http.Client{Transport: tr, Timeout: time.Minute}, baseURL: baseURL}
}

func (s *sender) close() { s.client.CloseIdleConnections() }

// do sends rq and classifies the reply. It returns when the reply was
// read, before the oracle ran, so checking answers is not timed; the
// trace ID is empty on untraced runs.
func (s *sender) do(rq *request) (outcome, string, time.Time) {
	var traceID string
	if s.traced {
		traceID = traceIDFor(s.seq.Add(1))
	}
	req, err := http.NewRequest(http.MethodPost, s.baseURL+rq.path, bytes.NewReader(rq.body))
	if err != nil {
		return outFailed, traceID, time.Now()
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set(telemetry.HeaderTraceID, traceID)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return outFailed, traceID, time.Now()
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	end := time.Now()
	switch {
	case err != nil:
		return outFailed, traceID, end
	case resp.StatusCode == http.StatusTooManyRequests:
		return outShed, traceID, end
	case resp.StatusCode != http.StatusOK:
		return outFailed, traceID, end
	case rq.check != nil && !rq.check(body):
		return outWrong, traceID, end
	}
	return outOK, traceID, end
}

// poissonSchedule returns the arrival offsets of a Poisson process at
// rate per second over dur, conditioned on its expected count: given
// their number, Poisson arrivals are independent and uniform over the
// interval. Fixing the count keeps the offered load identical across
// seeds, so the achieved rate measures the system, not the draw.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	n := int(math.Round(rate * dur.Seconds()))
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Int63n(int64(dur)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// openLoop sends one request per scheduled arrival using at most conns
// concurrent connections. A request whose due time passes while every
// connection is busy waits in the generator and is sent late; its
// latency still counts from the due time. Every scheduled request is
// sent, so a rung past saturation drains its backlog before returning.
func openLoop(s *sender, sched []time.Duration, conns int, next func(i int) *request) []sample {
	samples := make([]sample, len(sched))
	start := time.Now()
	var idx atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(idx.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				due := start.Add(sched[i])
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				rq := next(i)
				sent := time.Now()
				out, tid, end := s.do(rq)
				samples[i] = sample{due: due, start: sent, end: end, out: out, traceID: tid, label: rq.label}
			}
		}()
	}
	wg.Wait()
	return samples
}

// closedLoop runs clients that each send their next request as soon as
// the previous one completes, until dur has elapsed.
func closedLoop(s *sender, clients int, dur time.Duration, next func(i int) *request) []sample {
	deadline := time.Now().Add(dur)
	var idx atomic.Int64
	var mu sync.Mutex
	var samples []sample
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []sample
			for time.Now().Before(deadline) {
				rq := next(int(idx.Add(1) - 1))
				sent := time.Now()
				out, tid, end := s.do(rq)
				local = append(local, sample{due: sent, start: sent, end: end, out: out, traceID: tid, label: rq.label})
			}
			mu.Lock()
			samples = append(samples, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return samples
}

// counts tallies outcomes.
type counts struct{ sent, ok, failed, shed, wrong int }

func (c *counts) add(ss []sample) {
	for _, s := range ss {
		c.sent++
		switch s.out {
		case outOK:
			c.ok++
		case outFailed:
			c.failed++
		case outShed:
			c.shed++
		case outWrong:
			c.wrong++
		}
	}
}

// failFrac is (failed + shed + wrong) / sent.
func (c counts) failFrac() float64 {
	if c.sent == 0 {
		return 0
	}
	return float64(c.sent-c.ok) / float64(c.sent)
}

// latencies returns every sample's latency in milliseconds. Failed,
// shed and wrong requests count as missing any limit: they are given
// +Inf so percentiles treat them as the slowest.
func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		if s.out != outOK {
			out[i] = math.Inf(1)
			continue
		}
		out[i] = ms(s.latency())
	}
	return out
}

func lags(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(s.lag())
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile returns the q-quantile of xs by the nearest-rank method
// (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	r := int(math.Ceil(q*float64(len(ys)))) - 1
	if r < 0 {
		r = 0
	}
	return ys[r]
}

// median is the midpoint median of a handful of values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
