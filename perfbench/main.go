// Command perfbench is the repository's end-to-end benchmark. Each
// invocation runs one workload in a fresh process, so the process-global
// what-if cache, interning tables and obs registry never carry over from
// another run:
//
//	attack  the paper's Fig. 7 protocol: StressTest of trained victims by PIPA and FSM
//	defend  RunDefenseSweep over the Heuristic victim at index budget 8
//	serve   an in-process advisord answering /v1/recommend between guarded /v1/update batches
//
// A run prints human-readable lines (provenance, per-operation counts,
// metric table, output digest) and, as its last line, one JSON object with
// the keys correct, attempted, failed and metrics. With -trace 0 the
// metrics are the end-to-end ones; with -trace 1 they are the per-layer
// ones, built from the benchmark's own spans, the program's obs counters
// and a CPU profile of the timed phase. See README.md.
//
// Run it through run.py, which builds this package from source first:
//
//	python3 perfbench/run.py --workload attack --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workloads maps each workload name to its run function and the share of
// -seconds one round is budgeted, which turns -seconds into a fixed round
// count (README.md lists the measured round times).
var workloads = map[string]struct {
	run    func(ctx context.Context, r *Run) error
	roundS float64
}{
	"attack": {runAttack, 20},
	"defend": {runDefend, 30},
	"serve":  {runServe, 3},
}

func main() {
	name := flag.String("workload", "", "workload: attack, defend or serve")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "nominal length of the timed phase; sets the fixed round count")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	source := flag.String("source", "", "source revision recorded in the provenance line (run.py passes it)")
	flag.Parse()

	wl, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload attack|defend|serve and -trace 0|1 (got %q, %d)\n", *name, *trace)
		os.Exit(2)
	}
	r := &Run{
		Workload: *name,
		Seed:     *seed,
		Rounds:   max(1, int(math.Round(*seconds/wl.roundS))),
		Traced:   *trace == 1,
		E2E:      make(map[string]float64),
	}
	provenance(r, *source)

	var untracedWall float64
	if r.Traced {
		// The tracing overhead compares against an untraced run of the same
		// inputs in its own process, so neither sees the other's warm caches.
		w, err := untracedTimedWall(*name, *seed, *seconds, *source)
		if err != nil {
			fail(err)
		}
		untracedWall = w
		r.spans = newSpanLog()
		r.Layer = make(map[string]float64)
	}

	heap := startHeapSampler()
	if err := wl.run(context.Background(), r); err != nil {
		fail(err)
	}
	r.peakHeapMiB = heap.stop()
	fmt.Printf("timed_wall_s %.6f\n", r.timedWall)

	res := r.result()
	if r.Traced {
		r.Layer["obs.trace_overhead_frac"] = (r.timedWall - untracedWall) / untracedWall
		r.Layer["runtime.peak_rss_mb"] = peakRSSMiB()
		r.Layer["runtime.peak_heap_mb"] = r.peakHeapMiB
		res.Metrics = r.layerMetrics()
	}
	r.printTables(res)
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// provenance prints what the numbers of this run depend on beyond the
// source: core counts, toolchain, source revision and seed.
func provenance(r *Run, source string) {
	p := map[string]any{
		"workload":   r.Workload,
		"seed":       r.Seed,
		"rounds":     r.Rounds,
		"traced":     r.Traced,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"numcpu":     runtime.NumCPU(),
		"go":         runtime.Version(),
		"commit":     source,
	}
	b, _ := json.Marshal(p) // a map of plain values always marshals
	fmt.Println("provenance", string(b))
}

// untracedTimedWall runs this binary again with -trace 0 and the same
// inputs and returns the wall time of that run's timed phase.
func untracedTimedWall(workload string, seed int64, seconds float64, source string) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, fmt.Errorf("locate own binary: %w", err)
	}
	var out bytes.Buffer
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0", "-source", source)
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("untraced reference run: %w", err)
	}
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "timed_wall_s "); ok {
			return strconv.ParseFloat(v, 64)
		}
	}
	return 0, fmt.Errorf("untraced reference run printed no timed_wall_s line")
}

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line of every run.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics every workload reports, in print
// order, with their units. README.md maps each onto the workload's unit of
// work.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_cpu_ms", "ms"},
	{"op_p50_ms", "ms"},
	{"round_cpu_s", "s"},
}

// opTally counts one operation type.
type opTally struct{ attempted, failed int }

// Run carries one workload run's settings and everything it measures.
type Run struct {
	Workload string
	Seed     int64
	Rounds   int
	Traced   bool

	E2E         map[string]float64 // end-to-end values, keyed as in endToEnd
	timedWall   float64            // seconds of the timed phase (all rounds)
	peakHeapMiB float64

	ops      map[string]*opTally
	opOrder  []string
	problems []string // output-check failures that are not one operation's
	digest   []string

	Layer   map[string]float64 // per-layer values, traced runs only
	missing []string           // program counters the traced run could not find
	spans   *spanLog           // nil unless traced
}

// op records one attempted operation of the given type.
func (r *Run) op(kind string, err error) {
	if r.ops == nil {
		r.ops = make(map[string]*opTally)
	}
	t, ok := r.ops[kind]
	if !ok {
		t = &opTally{}
		r.ops[kind] = t
		r.opOrder = append(r.opOrder, kind)
	}
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", kind, err)
	}
}

// problem records a failed output check that spans many operations.
func (r *Run) problem(err error) {
	r.problems = append(r.problems, err.Error())
	fmt.Fprintln(os.Stderr, "perfbench: output check:", err)
}

func (r *Run) digestf(format string, args ...any) {
	r.digest = append(r.digest, fmt.Sprintf(format, args...))
}

func (r *Run) result() Result {
	res := Result{Correct: len(r.problems) == 0, Metrics: make(map[string]Metric)}
	for _, t := range r.ops {
		res.Attempted += t.attempted
		res.Failed += t.failed
	}
	for _, m := range endToEnd {
		res.Metrics[m.name] = Metric{Value: r.E2E[m.name], Unit: m.unit}
	}
	return res
}

func (r *Run) printTables(res Result) {
	for _, k := range r.opOrder {
		t := r.ops[k]
		fmt.Printf("op %-12s attempted %6d failed %d\n", k, t.attempted, t.failed)
	}
	for _, d := range r.digest {
		fmt.Println("digest", d)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-28s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	if len(r.missing) > 0 {
		fmt.Printf("missing counters (reported as 0): %s\n", strings.Join(r.missing, ", "))
	}
}

// meter brackets a measured phase: wall clock, process CPU and allocation.
type meter struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
	gcs   uint32
}

func startMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{wall: time.Now(), cpu: processCPU(), alloc: ms.TotalAlloc, gcs: ms.NumGC}
}

// since returns the wall and CPU seconds elapsed since the meter started.
func (m meter) since() (wall, cpu float64) {
	return time.Since(m.wall).Seconds(), (processCPU() - m.cpu).Seconds()
}

// memSince returns the MiB allocated and the GC cycles run since start.
func (m meter) memSince() (allocMiB float64, gcs float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc-m.alloc) / (1 << 20), float64(ms.NumGC - m.gcs)
}

// processCPU is this process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler tracks the process's peak live heap: the bytes the last GC
// found reachable, read every 10 ms. Unlike peak RSS it leaves out the
// garbage the collector lets accumulate between cycles, which moves with
// GC timing rather than with what the program keeps.
type heapSampler struct {
	stopc, done chan struct{}
	peak        uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 {
				h.peak = max(h.peak, s[0].Value.Uint64())
			}
			select {
			case <-h.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in MiB.
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// peakRSSMiB is the process's peak resident set size (ru_maxrss is KiB on
// Linux).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// median returns the middle of xs (the mean of the two middles for an even
// count); 0 for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile linearly interpolates the q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}
