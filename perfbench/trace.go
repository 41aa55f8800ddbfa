package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"

	"repro/internal/obs"
)

// perLayer lists every per-layer metric a traced run prints, with its unit.
// Every traced run prints all of them; a layer the workload does not
// exercise reads 0 (README.md says which workload each belongs to).
var perLayer = func() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, struct{ name, unit string }{n, unit})
		}
	}
	for _, m := range profileModules {
		add("frac", m+".cpu_share")
	}
	add("MiB", "runtime.alloc_mb_per_op", "runtime.peak_rss_mb", "runtime.peak_heap_mb")
	add("count", "runtime.gc_cycles")
	add("frac", "obs.trace_overhead_frac")
	add("s", "advisor.train_s", "advisor.retrain_s", "pipa.probe_s", "pipa.inject_s")
	add("ms", "advisor.recommend_ms", "cost.workload_cost_ms")
	add("count", "advisor.episode_steps", "cost.whatif_calls", "cost.plans",
		"defense.trim_iterations", "defense.trim_dropped", "defense.trim_kept", "defense.trim_clean_fp",
		"guard.commits", "guard.rollbacks", "serve.restores", "serve.swaps")
	add("frac", "pipa.inject_accept_rate", "qgen.accept_rate", "cost.whatif_hit_rate", "cost.coster_recost_frac")
	add("ms", "serve.restore_p50_ms", "serve.infer_p50_ms", "serve.replica_wait_p50_ms",
		"serve.server_p50_ms", "serve.http_ms", "serve.recommend_p99_ms", "serve.queue_wait_ms",
		"serve.update_p50_ms", "guard.update_ms", "guard.canary_ms", "guard.snapshot_ms", "guard.commit_cpu_ms")
	return out
}()

// profileModules are the rows of the CPU-profile attribution: the program's
// internal packages that carry the work, the Go runtime, the rest of the
// standard library, and everything else (other internal packages and the
// benchmark itself).
var profileModules = []string{
	"nn", "cost", "snap", "qgen", "pipa", "advisor", "defense", "guard", "serve", "sql",
	"runtime", "stdlib", "other",
}

func (r *Run) layerMetrics() map[string]Metric {
	out := make(map[string]Metric, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = Metric{Value: r.Layer[m.name], Unit: m.unit}
	}
	return out
}

// spanLog collects the benchmark's own spans around its calls into each
// layer: durations grouped by span name. A nil log (untraced runs) records
// nothing.
type spanLog struct {
	mu sync.Mutex
	d  map[string][]float64 // seconds
}

func newSpanLog() *spanLog { return &spanLog{d: make(map[string][]float64)} }

// add records one span's duration under name.
func (l *spanLog) add(name string, seconds float64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.d[name] = append(l.d[name], seconds)
	l.mu.Unlock()
}

func (l *spanLog) median(name string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return median(l.d[name])
}

// counterWindow holds the program's obs counters at the start and end of
// the timed phase, so per-layer counts cover that phase alone.
type counterWindow struct {
	r      *Run
	c0, c1 map[string]int64
}

func (r *Run) openCounters() *counterWindow {
	return &counterWindow{r: r, c0: obs.Default.Metrics.Snapshot().Counters}
}

// close marks the end of the timed phase.
func (w *counterWindow) close() { w.c1 = obs.Default.Metrics.Snapshot().Counters }

// delta is how much the named counter grew over the window. A name the
// program no longer exports is recorded as missing and reads 0, so a rename
// never fails the run.
func (w *counterWindow) delta(name string) float64 {
	v, ok := w.c1[name]
	if !ok {
		w.r.noteMissing(name)
		return 0
	}
	return float64(v - w.c0[name])
}

func (r *Run) noteMissing(name string) {
	for _, m := range r.missing {
		if m == name {
			return
		}
	}
	r.missing = append(r.missing, name)
}

// ratio is num/den, or 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// programSpans returns the durations, in seconds, of every span with the
// given name that the program recorded on the obs tracer.
func programSpans(name string) []float64 {
	var out []float64
	var walk func([]*obs.SpanSnapshot)
	walk = func(ss []*obs.SpanSnapshot) {
		for _, s := range ss {
			if s.Name == name && s.DurUs >= 0 {
				out = append(out, float64(s.DurUs)/1e6)
			}
			walk(s.Children)
		}
	}
	walk(obs.Default.Tracer.Snapshot())
	return out
}

// profiler wraps a CPU profile of the timed phase; the zero value (untraced
// runs) does nothing.
type profiler struct{ path string }

// startProfile begins a CPU profile written under .bench_build in the
// working directory (the checkout root).
func (r *Run) startProfile() (*profiler, error) {
	if !r.Traced {
		return &profiler{}, nil
	}
	dir := filepath.Join(".bench_build", "profiles")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("profile dir: %w", err)
	}
	p := &profiler{path: filepath.Join(dir, fmt.Sprintf("%s-seed%d.pprof", r.Workload, r.Seed))}
	f, err := os.Create(p.path)
	if err != nil {
		return nil, fmt.Errorf("profile file: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and folds its self time into <module>.cpu_share.
func (p *profiler) stop(r *Run) error {
	if p.path == "" {
		return nil
	}
	pprof.StopCPUProfile()
	shares, err := moduleShares(p.path)
	if err != nil {
		return err
	}
	for _, m := range profileModules {
		r.Layer[m+".cpu_share"] = shares[m]
	}
	return nil
}

// moduleShares reads a CPU profile with the toolchain's pprof and returns
// each module's share of self (flat) time.
func moduleShares(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-unit=ms", path)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, errb.String())
	}
	shares, err := parseTop(out.Bytes())
	if err != nil {
		return nil, fmt.Errorf("%w: %s%s", err, out.String(), errb.String())
	}
	return shares, nil
}

// parseTop folds `pprof -top -unit=ms` rows ("flat flat% sum% cum cum% name")
// into per-module shares of the total flat time.
func parseTop(top []byte) (map[string]float64, error) {
	flat := make(map[string]float64)
	total := 0.0
	header := false
	sc := bufio.NewScanner(bytes.NewReader(top))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 5 && f[0] == "flat" && f[1] == "flat%" {
			header = true
			continue
		}
		if !header || len(f) < 6 {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %w", sc.Text(), err)
		}
		name := strings.Join(f[5:], " ")
		flat[moduleOf(name)] += ms
		total += ms
	}
	if !header {
		return nil, fmt.Errorf("pprof printed no -top table")
	}
	shares := make(map[string]float64, len(flat))
	for m, v := range flat {
		shares[m] = ratio(v, total)
	}
	return shares, nil
}

// moduleOf maps a profiled function name to its profile row:
// repro/internal/<module>[/sub].Func → module, runtime and its internal
// packages and package-less assembly routines (memeqbody, [vdso]) →
// runtime, other standard-library packages → stdlib.
func moduleOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
		end := strings.IndexAny(rest, "/.")
		if end < 0 {
			end = len(rest)
		}
		m := rest[:end]
		for _, want := range profileModules {
			if m == want {
				return m
			}
		}
		return "other"
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/internal/") ||
		strings.HasPrefix(fn, "internal/runtime/") || !strings.Contains(fn, ".") || strings.HasPrefix(fn, "[") {
		return "runtime"
	}
	if strings.HasPrefix(fn, "main.") {
		return "other"
	}
	pkg := fn
	if i := strings.Index(pkg, "."); i >= 0 {
		pkg = pkg[:i]
	}
	if !strings.Contains(strings.SplitN(pkg, "/", 2)[0], ".") && !strings.HasPrefix(fn, "repro/") {
		return "stdlib"
	}
	return "other"
}
