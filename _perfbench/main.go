// Command perfbench is the SPATIAL stack's end-to-end and per-layer
// latency benchmark. It lives in _perfbench, a module of its own: the
// leading underscore keeps repository-wide package walks (go ./...
// patterns, spatial-lint) out of it. It deploys the real stack in-process on loopback
// with deployed defaults, drives one seeded workload from this process,
// checks every answer against the benchmark's own models, and prints
// every metric by name with its unit; the last line of standard output
// is a JSON summary.
//
//	perfbench --workload predict-trickle --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics (tracing off). --trace 1
// reports the per-layer metrics: an untraced phase, a traced phase whose
// spans come from the benchmark's wrappers around each layer, and a
// sequential layer-ladder probe. See README.md for the workloads, the
// metrics and which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupRepeats is how many times set-up runs; setup_s is the median.
const setupRepeats = 3

// traceDir, relative to the checkout root, receives traced runs' spans.
const traceDir = ".bench_build/perfbench"

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: predict-trickle, predict-ladder or explain-fig8c")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 30, "measurement seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	// A run is expected to end within 180 s; stop short of that rather
	// than hang.
	watchdog := time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded 170s")
		os.Exit(3)
	})
	defer watchdog.Stop()

	b := &bench{w: w, seed: *seed, dur: time.Duration(*seconds) * time.Second, metrics: map[string]metric{}}
	var err error
	if *trace == 0 {
		err = b.endToEnd()
	} else {
		err = b.perLayer(traceDir)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	return b.report()
}

// bench is one invocation's state.
type bench struct {
	w       *workload
	seed    int64
	dur     time.Duration
	metrics map[string]metric
	all     counts
	e       *env
}

func (b *bench) set(name string, v float64, unit string) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// setup runs the workload's set-up setupRepeats times, keeping the last
// deployment, and returns the median process CPU time (user + sys) of a
// set-up in seconds. CPU time rather than wall time: on a shared VM,
// host steal swings set-up wall time by half between minutes, while the
// work a set-up does is what a change can move. Wall times are printed.
func (b *bench) setup(t *tracer) (float64, error) {
	var cpu, wall []float64
	for i := 0; i < setupRepeats; i++ {
		if b.e != nil {
			b.e.close()
			b.e = nil
		}
		runtime.GC()
		t0, u0 := time.Now(), snapshot()
		e, err := b.w.setup(b.seed, t)
		if err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		cpu = append(cpu, (snapshot().cpu - u0.cpu).Seconds())
		wall = append(wall, time.Since(t0).Seconds())
		b.e = e
	}
	fmt.Printf("# set-up wall s: %.3f, cpu s: %.3f\n", wall, cpu)
	if err := b.w.prepare(b.e, b.seed); err != nil {
		return 0, fmt.Errorf("prepare: %w", err)
	}
	return median(cpu), nil
}

// usage is a process resource snapshot.
type usage struct {
	cpu   time.Duration
	alloc uint64
}

func snapshot() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return usage{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: m.TotalAlloc,
	}
}

// resetPeakRSS returns freed memory to the OS and restarts the
// kernel's peak-RSS counter, so the peak covers the measurement only and
// does not depend on how garbage from the repeated set-ups was
// collected. Memory the deployment retains still counts.
func resetPeakRSS() {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Printf("# peak RSS not reset (%v); it includes set-up\n", err)
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTicks reads the host's cumulative CPU and steal ticks from
// /proc/stat; on a shared VM the steal share tells a slow run from a
// slow program.
func cpuTicks() (total, steal float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f) && i <= 8; i++ {
		var v float64
		if _, err := fmt.Sscanf(f[i], "%f", &v); err == nil {
			total += v
			if i == 8 {
				steal = v
			}
		}
	}
	return total, steal
}

// endToEnd measures the workload with tracing off.
func (b *bench) endToEnd() error {
	setupS, err := b.setup(nil)
	if err != nil {
		return err
	}
	defer b.e.close()
	s := newSender(b.e.st.gateway, connections)
	defer s.close()
	runtime.GC()
	resetPeakRSS()
	t0, st0 := cpuTicks()
	u0 := snapshot()
	res, err := b.w.measure(b.e, s, b.seed, b.dur, false)
	if err != nil {
		return err
	}
	u1 := snapshot()
	t1, st1 := cpuTicks()
	fmt.Printf("# host CPU steal during measurement: %.1f%%\n", 100*ratio(st1-st0, t1-t0))
	b.all = res.all
	lat := latencies(res.main)
	ops := float64(res.all.ok)
	if ops < 1 {
		ops = 1
	}
	b.set("setup_s", setupS, "s")
	b.set("latency_p50_ms", quantile(lat, 0.5), "ms")
	fmt.Printf("# latency p90 %.3f ms, p99 %.3f ms\n", quantile(lat, 0.9), quantile(lat, 0.99))
	b.set("goodput_rps", res.goodput, "1/s")
	b.set("ok_frac", 1-res.all.failFrac(), "ratio")
	b.set("cpu_ms_per_op", ms(u1.cpu-u0.cpu)/ops, "ms")
	b.set("alloc_kb_per_op", float64(u1.alloc-u0.alloc)/1024/ops, "KB")
	b.set("rss_peak_mb", peakRSSMB(), "MB")
	printRungs(res)
	printClasses(res.main)
	printWindows(res.main, 2*time.Second)
	fmt.Printf("# latency samples: %d (headline), %d sent in total\n", len(res.main), res.all.sent)
	return nil
}

func printRungs(res *result) {
	for i, r := range res.rungs {
		fmt.Printf("# rung %d: rate %.0f/s for %v: sent %d, p50 %.3f ms, p99 %.3f ms, ok %.1f/s, fail %.4f, backlog growing %v\n",
			i+1, r.rate, r.dur, len(r.samples), r.p50, r.p99, r.okRPS, r.failFrac, r.growing)
	}
	if len(res.promotes) > 0 {
		fmt.Printf("# promotes: %d, p50 %.3f ms\n", len(res.promotes), median(res.promotes))
	}
}

// printWindows prints the headline median per window of due times, to
// show how steady the run was.
func printWindows(ss []sample, w time.Duration) {
	if len(ss) == 0 {
		return
	}
	t0 := ss[0].due
	for _, s := range ss {
		if s.due.Before(t0) {
			t0 = s.due
		}
	}
	by := map[int][]sample{}
	last := 0
	for _, s := range ss {
		i := int(s.due.Sub(t0) / w)
		by[i] = append(by[i], s)
		if i > last {
			last = i
		}
	}
	fmt.Printf("# p50 per %v window:", w)
	for i := 0; i <= last; i++ {
		fmt.Printf(" %.2f", quantile(latencies(by[i]), 0.5))
	}
	fmt.Println()
}

// printClasses breaks the headline samples down by request class.
func printClasses(ss []sample) {
	by := map[string][]sample{}
	for _, s := range ss {
		by[s.label] = append(by[s.label], s)
	}
	labels := make([]string, 0, len(by))
	for l := range by {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		lat := latencies(by[l])
		fmt.Printf("# class %-8s n=%-6d p50 %.3f ms, p99 %.3f ms\n", l, len(lat), quantile(lat, 0.5), quantile(lat, 0.99))
	}
}

// report prints every metric and the JSON summary, and returns the exit
// code: nonzero when any answer was wrong.
func (b *bench) report() int {
	names := make([]string, 0, len(b.metrics))
	for n, m := range b.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// A percentile that lands on a failed request has no finite
			// latency; report it as an unmistakable 1e9.
			b.metrics[n] = metric{Value: 1e9, Unit: m.Unit}
		}
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s %v %s\n", n, b.metrics[n].Value, b.metrics[n].Unit)
	}
	fmt.Printf("# %s: sent %d, ok %d, failed %d, shed %d, wrong %d\n",
		b.w.name, b.all.sent, b.all.ok, b.all.failed, b.all.shed, b.all.wrong)
	out, err := json.Marshal(summary{
		Correct:   b.all.wrong == 0,
		Attempted: b.all.sent,
		Failed:    b.all.sent - b.all.ok,
		Metrics:   b.metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode summary: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if b.all.wrong > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d wrong answers\n", b.all.wrong)
		return 1
	}
	return 0
}

// writeTrace stores the traced phase's spans and request timelines.
func writeTrace(dir, name string, seed int64, ss []sample, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type req struct {
		TraceID string    `json:"traceId"`
		Due     time.Time `json:"due"`
		Start   time.Time `json:"start"`
		End     time.Time `json:"end"`
		Outcome int       `json:"outcome"`
	}
	reqs := make([]req, 0, len(ss))
	for _, s := range ss {
		reqs = append(reqs, req{s.traceID, s.due, s.start, s.end, int(s.out)})
	}
	data, err := json.Marshal(map[string]any{"requests": reqs, "spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", name, seed)), data, 0o644)
}
