// Command perfbench is the repository's end-to-end benchmark. One invocation
// runs one workload from a seed and prints every metric by name and unit;
// the last line of standard output is a JSON object
//
//	{"correct": bool, "attempted": n, "failed": n, "metrics": {name: {"value": v, "unit": u}}}
//
// With -trace 0 the metrics are the end-to-end set (the proxy is measured
// from outside: cmd/botproxy runs as its own process). With -trace 1 the run
// additionally drives the traced legs, which time calls into each layer's
// public functions from the benchmark's side, and the metrics are the
// per-layer set. See README.md in this directory for the workloads, the
// metric definitions and the layer map.
//
// Any validity guard that fires (a reused proxy, an admission ladder that
// left "full", a throttled crowd, a late open-loop generator, an early proxy
// exit, a launched session the admin surface never saw, or a response the
// origin oracle rejects) ends the run with a non-zero exit and no result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Fixed settings shared by every workload. The proxy's seed is fixed so the
// synthetic site and key streams are identical across runs; the workload
// seed (-seed) only drives the generated clients.
const (
	proxySeed  = 2006
	proxyPages = 200
	// setupLaunches is how many times a run measures set-up (proxy launch to
	// first correct response, or site+network build for simulate); setup_s
	// is their median.
	setupLaunches = 5
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	botproxy string
	out      string
}

// metric is one named measurement.
type metric struct {
	Name  string
	Unit  string
	Value float64
	N     int // sample count behind a timing (0: not a sampled timing)
}

// result accumulates a run's metrics and correctness accounting.
type result struct {
	attempted int64
	failed    int64
	metrics   []metric
	// extra are report-only figures (printed, written to the report file,
	// not part of the JSON result line).
	extra []metric
}

func (r *result) add(name, unit string, v float64, n int) {
	r.metrics = append(r.metrics, metric{Name: name, Unit: unit, Value: v, N: n})
}

func (r *result) note(name, unit string, v float64, n int) {
	r.extra = append(r.extra, metric{Name: name, Unit: unit, Value: v, N: n})
}

// cleanups run before any exit, so no proxy process outlives the run.
var (
	cleanupMu sync.Mutex
	cleanups  []func()
)

func atExit(f func()) {
	cleanupMu.Lock()
	cleanups = append(cleanups, f)
	cleanupMu.Unlock()
}

func runCleanups() {
	cleanupMu.Lock()
	fs := cleanups
	cleanups = nil
	cleanupMu.Unlock()
	for i := len(fs) - 1; i >= 0; i-- {
		fs[i]()
	}
}

// invalid aborts the run: a validity guard fired or the environment is
// unusable. No result line is printed.
func invalid(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: INVALID RUN: "+format+"\n", args...)
	runCleanups()
	os.Exit(2)
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: browse, crowd or simulate")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed (clients, arrivals, page choices)")
	flag.IntVar(&o.seconds, "seconds", 20, "nominal run length; sizes each workload's fixed amount of work")
	flag.IntVar(&trace, "trace", 0, "1: run the traced legs and report per-layer metrics")
	flag.StringVar(&o.botproxy, "botproxy", "", "path of the built cmd/botproxy binary")
	flag.StringVar(&o.out, "out", ".bench_build/perfbench-out", "directory for span dumps and reports")
	flag.Parse()
	o.trace = trace == 1
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "perfbench: %v: stopping\n", s)
		runCleanups()
		os.Exit(3)
	}()
	if o.seconds < 1 {
		invalid("-seconds must be at least 1")
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		invalid("create output directory: %v", err)
	}

	var res *result
	switch o.workload {
	case "browse":
		res = runBrowse(o)
	case "crowd":
		res = runCrowd(o)
	case "simulate":
		res = runSimulate(o)
	default:
		invalid("unknown -workload %q (want browse, crowd or simulate)", o.workload)
	}
	runCleanups()
	if res.failed > 0 {
		invalid("%d of %d requests failed (transport errors or origin-oracle mismatches)", res.failed, res.attempted)
	}
	emit(o, res)
}

// emit prints the human-readable report, writes it to the output directory,
// and prints the JSON result as the last line.
func emit(o options, res *result) {
	mode := "e2e"
	if o.trace {
		mode = "trace"
	}
	var lines []string
	lines = append(lines, fmt.Sprintf("# perfbench workload=%s seed=%d seconds=%d trace=%v", o.workload, o.seed, o.seconds, o.trace))
	for _, set := range [][]metric{res.metrics, res.extra} {
		for _, m := range set {
			l := fmt.Sprintf("%-40s %14.6g %s", m.Name, m.Value, m.Unit)
			if m.N > 0 {
				l += fmt.Sprintf("  (n=%d)", m.N)
			}
			lines = append(lines, l)
		}
	}
	lines = append(lines, fmt.Sprintf("%-40s %14d", "attempted", res.attempted), fmt.Sprintf("%-40s %14d", "failed", res.failed))
	text := strings.Join(lines, "\n") + "\n"
	fmt.Print(text)
	base := filepath.Join(o.out, o.workload+"-"+mode)
	_ = os.WriteFile(base+".txt", []byte(text), 0o644)
	all := map[string]float64{}
	for _, set := range [][]metric{res.metrics, res.extra} {
		for _, m := range set {
			all[m.Name] = m.Value
		}
	}
	if b, err := json.Marshal(report{Seed: o.seed, Seconds: o.seconds, Metrics: all}); err == nil {
		_ = os.WriteFile(base+".json", b, 0o644)
	}

	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]mv, len(res.metrics))
	for _, m := range res.metrics {
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			invalid("metric %s is not a finite number", m.Name)
		}
		ms[m.Name] = mv{Value: v, Unit: m.Unit}
	}
	out, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: ms})
	fmt.Println(string(out))
}

// report is the per-run record written next to the text report; the traced
// run reads the latest untraced one for the tracing overhead.
type report struct {
	Seed    uint64             `json:"seed"`
	Seconds int                `json:"seconds"`
	Metrics map[string]float64 `json:"metrics"`
}

// loadE2E reads the latest untraced result of the workload, if it was made
// with the same -seconds.
func loadE2E(o options) (map[string]float64, uint64, bool) {
	b, err := os.ReadFile(filepath.Join(o.out, o.workload+"-e2e.json"))
	if err != nil {
		return nil, 0, false
	}
	var r report
	if json.Unmarshal(b, &r) != nil || r.Seconds != o.seconds {
		return nil, 0, false
	}
	return r.Metrics, r.Seed, true
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// fullGC collects twice: objects parked in sync.Pool survive one cycle in
// the pools' victim caches, so a single GC leaves a heap figure that depends
// on which pool buffers the last requests happened to release.
func fullGC() {
	runtime.GC()
	runtime.GC()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
