// Command perfbench is the repository's benchmark. Each workload is one
// batch pass over a trace generated from the workload seed during set-up,
// timed as throughput at the workload's input size on a cold-cache engine.
// Untraced passes give the end-to-end metrics; with -trace 1 the run
// alternates untraced passes with traced ones, which charge the pass to the
// colbin, tracegen, evalcache, backend, stream, analyze and replay layers
// and give the per-layer metrics. Every pass's snapshot digest is checked
// against a reference computed once, outside timing.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload report-colbin --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is the result object; the line before
// it describes the host and every pass.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"time"

	pai "repro"
	"repro/internal/evalcache"
)

// A run sets its workload up at least minSetups times, and until setupTime
// has been spent; setup_s is the median. Set-ups of a fraction of a second
// are repeated more often, which keeps their median as steady as that of
// the slower ones.
const (
	minSetups = 5
	setupTime = 3 * time.Second
)

// minPasses is the fewest timed (and, under -trace 1, traced) passes a run
// makes, however long they take.
const minPasses = 3

// Without -trace, a run makes memoryPasses memory passes, run at GOGC
// memoryGCPercent; peak_heap_mib is their median. The live-heap figure is
// refreshed only when a collection ends; collecting this often makes the
// sampled maximum track the true peak instead of depending on where the
// default pacing happens to place the few collections of a pass.
const (
	memoryPasses    = 3
	memoryGCPercent = 10
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	dir      string
	// jobs, when positive, overrides the workload's trace size (tests).
	jobs int
}

// metric is one reported value and its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// host describes the machine and build a result was measured on.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Revision   string `json:"revision"`
	Dirty      bool   `json:"dirty"`
}

func hostInfo() host {
	v := pai.Version()
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Revision:   v.Revision,
		Dirty:      v.Dirty,
	}
}

// passMode is what a pass is run for.
type passMode string

const (
	// timedPass is untraced and gives jobs_per_sec and alloc_bytes_per_job.
	timedPass passMode = "timed"
	// tracedPass runs through the ledger and gives the per-layer metrics.
	tracedPass passMode = "traced"
	// memoryPass runs untraced at memoryGCPercent and gives peak_heap_mib.
	memoryPass passMode = "memory"
)

// pass is the measurement of one pass.
type pass struct {
	Mode        passMode           `json:"mode"`
	Seconds     float64            `json:"seconds"`
	Jobs        int                `json:"jobs"`
	JobsPerSec  float64            `json:"jobs_per_sec"`
	AllocBytes  uint64             `json:"alloc_bytes"`
	PeakHeapMiB float64            `json:"peak_heap_mib,omitempty"`
	Layers      map[string]float64 `json:"layers,omitempty"`
	Err         string             `json:"error,omitempty"`
}

// report is the descriptive line printed before the result.
type report struct {
	Host     host      `json:"host"`
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Jobs     int       `json:"jobs"`
	Digest   string    `json:"reference_digest"`
	SetupS   []float64 `json:"setup_s"`
	Passes   []pass    `json:"passes"`
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: report-colbin, ingest-ndjson or replay-contended")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's trace is generated from")
	flag.IntVar(&cfg.seconds, "seconds", 25, "how long the passes of one run are measured")
	flag.IntVar(&traceFlag, "trace", 0, "1 adds traced passes and reports the per-layer metrics instead")
	flag.StringVar(&cfg.dir, "dir", filepath.Join(".bench_build", "data"), "directory for the generated trace")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = traceFlag == 1
	rep, res, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run sets the workload up, computes its reference, measures its passes
// and returns the description and the result.
func run(ctx context.Context, cfg config) (report, result, error) {
	w, err := lookupWorkload(cfg.workload)
	if err != nil {
		return report{}, result{}, err
	}
	if cfg.seconds < 1 {
		return report{}, result{}, fmt.Errorf("-seconds %d: need at least 1", cfg.seconds)
	}
	p := w.params(cfg.seed)
	if cfg.jobs > 0 {
		p.NumJobs = cfg.jobs
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return report{}, result{}, err
	}
	path := filepath.Join(cfg.dir, fmt.Sprintf("%s-%d.%s", w.name, cfg.seed, w.format))
	defer os.Remove(path)

	rep := report{Host: hostInfo(), Workload: w.name, Seed: cfg.seed, Jobs: p.NumJobs}
	for spent := time.Duration(0); len(rep.SetupS) < minSetups || spent < setupTime; {
		d, err := w.setUp(path, p)
		if err != nil {
			return report{}, result{}, fmt.Errorf("set-up: %w", err)
		}
		spent += d
		rep.SetupS = append(rep.SetupS, d.Seconds())
	}
	ref, err := w.reference(ctx, path)
	if err != nil {
		return report{}, result{}, fmt.Errorf("reference: %w", err)
	}
	if err := ref.check(p.NumJobs); err != nil {
		return report{}, result{}, fmt.Errorf("reference: %w", err)
	}
	rep.Digest = fmt.Sprintf("%x", ref.digest)

	// Without -trace, the memory passes; then timed passes, alternated with
	// traced ones under -trace 1, until the measuring time is spent and each
	// kind has minPasses.
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	for n := 0; !cfg.trace && n < memoryPasses; n++ {
		rep.Passes = append(rep.Passes, measurePass(ctx, w, path, ref, memoryPass))
	}
	for n := 0; n < minPasses || time.Now().Before(deadline); n++ {
		rep.Passes = append(rep.Passes, measurePass(ctx, w, path, ref, timedPass))
		if cfg.trace {
			rep.Passes = append(rep.Passes, measurePass(ctx, w, path, ref, tracedPass))
		}
	}

	// A pass that failed its check still measured the work it did, so it
	// counts in the metrics; a pass whose call returned an error did not.
	res := result{Attempted: len(rep.Passes), Metrics: map[string]metric{}}
	done := map[passMode][]pass{}
	for _, ps := range rep.Passes {
		if ps.Err != "" {
			res.Failed++
		}
		if ps.Jobs > 0 {
			done[ps.Mode] = append(done[ps.Mode], ps)
		}
	}
	res.Correct = res.Failed == 0
	timed, traced, memory := done[timedPass], done[tracedPass], done[memoryPass]
	if len(timed) == 0 || (cfg.trace && len(traced) == 0) || (!cfg.trace && len(memory) == 0) {
		return rep, res, fmt.Errorf("no pass of a needed kind completed; first error: %s", rep.Passes[0].Err)
	}
	jobsPerSec := func(p pass) float64 { return p.JobsPerSec }
	if !cfg.trace {
		var alloc uint64
		var jobs int
		for _, p := range timed {
			alloc += p.AllocBytes
			jobs += p.Jobs
		}
		res.Metrics["jobs_per_sec"] = metric{median(timed, jobsPerSec), "1/s"}
		res.Metrics["setup_s"] = metric{medianOf(rep.SetupS), "s"}
		res.Metrics["alloc_bytes_per_job"] = metric{float64(alloc) / float64(jobs), "B"}
		res.Metrics["peak_heap_mib"] = metric{median(memory, func(p pass) float64 { return p.PeakHeapMiB }), "MiB"}
		return rep, res, nil
	}
	for _, lm := range layerMetrics {
		res.Metrics[lm.name] = metric{median(traced, func(p pass) float64 { return p.Layers[lm.name] }), lm.unit}
	}
	res.Metrics[overheadMetric] = metric{median(traced, jobsPerSec) / median(timed, jobsPerSec), "ratio"}
	return rep, res, nil
}

// measurePass runs one pass over a freshly opened trace on a cold cache and
// measures it. A pass fails when it returns an error, covers the wrong
// number of jobs, or its digest differs from the reference; only the first
// leaves it unmeasured.
func measurePass(ctx context.Context, w workload, path string, ref outcome, mode passMode) pass {
	ps := pass{Mode: mode}
	fail := func(err error) pass {
		ps.Err = err.Error()
		return ps
	}
	tr, err := w.open(path)
	if err != nil {
		return fail(err)
	}
	defer tr.Close()
	var eng *pai.Engine
	if mode != tracedPass {
		if eng, err = newEngine(); err != nil {
			return fail(err)
		}
	}
	var l ledger
	if mode == memoryPass {
		defer debug.SetGCPercent(debug.SetGCPercent(memoryGCPercent))
	}
	runtime.GC()
	var heap *heapSampler
	if mode == memoryPass {
		heap = startHeapSampler(time.Millisecond)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var out outcome
	var cs evalcache.Stats
	if mode == tracedPass {
		out, cs, err = w.runTraced(ctx, tr.src, &l)
	} else {
		out, err = w.run(ctx, eng, tr.src)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if heap != nil {
		ps.PeakHeapMiB = float64(heap.stop()) / (1 << 20)
	}
	if err != nil {
		return fail(err)
	}
	ps.Seconds = elapsed.Seconds()
	ps.Jobs = out.jobs
	ps.JobsPerSec = float64(out.jobs) / elapsed.Seconds()
	ps.AllocBytes = after.TotalAlloc - before.TotalAlloc
	if mode == tracedPass {
		ps.Layers = l.metrics(w, out, cs)
	}
	if err := out.check(ref.jobs); err != nil {
		return fail(err)
	}
	if out.digest != ref.digest {
		return fail(errors.New("snapshot digest differs from the reference"))
	}
	return ps
}

// heapSampler records the largest live heap the runtime reports while a
// pass runs. The live-heap figure changes only when a collection ends, so
// sampling every few milliseconds sees each value.
type heapSampler struct {
	quit, done chan struct{}
	peak       uint64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.quit:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends sampling, waits for the sampler to exit and returns the peak,
// including one last sample taken after the pass.
func (h *heapSampler) stop() uint64 {
	close(h.quit)
	<-h.done
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if v := s[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
	return h.peak
}

func median(ps []pass, f func(pass) float64) float64 {
	v := make([]float64, len(ps))
	for i, p := range ps {
		v[i] = f(p)
	}
	return medianOf(v)
}

func medianOf(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
