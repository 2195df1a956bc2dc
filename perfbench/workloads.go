package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	pai "repro"
	"repro/internal/analyze"
	"repro/internal/backend"
	"repro/internal/cluster"
	"repro/internal/evalcache"
	"repro/internal/project"
	"repro/internal/replay"
	"repro/internal/stream"
)

// The engine every workload runs is the one the paiserve daemon builds by
// default: the analytical backend behind a 16384-entry result cache, with
// one evaluation worker per CPU.
const cacheEntries = 16384

// Replay settings of the replay-contended workload: a 128-server pod under
// FIFO, fed at a rate that keeps it about two thirds busy with a deep queue.
const (
	replayServers = 128
	replayPolicy  = "fifo"
)

// passKind selects the pipeline one pass runs over the trace.
type passKind int

const (
	// foldReport folds with Engine.StreamInto into Engine.NewReportSink:
	// breakdown, component-cdf, hardware-cdf and projection sinks.
	foldReport passKind = iota
	// foldBreakdown folds with Engine.StreamInto into one
	// BreakdownAccumulator.
	foldBreakdown
	// replayTrace replays with Engine.Replay and its three fleet sinks.
	replayTrace
)

// workload is one named benchmark input: a trace generated from the seed
// during set-up, the codec it is written in, and the pipeline a pass runs.
type workload struct {
	name   string
	format string // "colbin" or "ndjson"
	kind   passKind
	params func(seed int64) pai.TraceParams
}

var workloads = []workload{
	// Production-repetitive jobs as indexed colbin: decode is cheap and
	// the cache serves nearly every block, so the sink fold dominates.
	{name: "report-colbin", format: "colbin", kind: foldReport, params: func(seed int64) pai.TraceParams {
		p := pai.DefaultTraceParams()
		p.NumJobs, p.Seed, p.DistinctJobs = 1_000_000, seed, 4096
		return p
	}},
	// Distinct jobs as NDJSON: every record is scanned and misses the
	// cache, so decode, evaluation and cache inserts dominate.
	{name: "ingest-ndjson", format: "ndjson", kind: foldBreakdown, params: func(seed int64) pai.TraceParams {
		p := pai.DefaultTraceParams()
		p.NumJobs, p.Seed = 500_000, seed
		return p
	}},
	// Poisson-stamped jobs replayed on a contended pod: the event loop and
	// gang placement dominate.
	{name: "replay-contended", format: "colbin", kind: replayTrace, params: func(seed int64) pai.TraceParams {
		p := pai.DefaultTraceParams()
		p.NumJobs, p.Seed, p.ArrivalRate = 100_000, seed, 2_000_000
		return p
	}},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// newEngine builds the engine a timed pass runs on. A fresh engine per pass
// starts with a cold cache, as every CLI or daemon run does.
func newEngine() (*pai.Engine, error) {
	return pai.New(
		pai.WithBackend(backend.AnalyticalName),
		pai.WithCache(cacheEntries),
		pai.WithParallelism(runtime.NumCPU()),
	)
}

// writeTrace generates the trace p describes and writes it to path in the
// workload's codec.
func (w workload) writeTrace(path string, p pai.TraceParams) error {
	src, err := pai.NewTraceSource(p)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := w.encode(f, src); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (w workload) encode(dst io.Writer, src pai.JobSource) error {
	out, err := pai.NewTraceWriter(dst, w.format)
	if err != nil {
		return err
	}
	for {
		job, err := src.Next()
		if err == io.EOF {
			return out.Flush()
		}
		if err != nil {
			return err
		}
		if err := out.Write(job); err != nil {
			return err
		}
	}
}

// trace is an opened trace file and the source reading it.
type trace struct {
	f   *os.File
	src pai.JobSource
}

func (w workload) open(path string) (*trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	src, err := pai.OpenTraceSource(f, w.format)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &trace{f: f, src: src}, nil
}

func (t *trace) Close() error { return t.f.Close() }

// setUp generates and writes the trace, opens it and builds the engine,
// returning how long that took: the work setup_s measures.
func (w workload) setUp(path string, p pai.TraceParams) (time.Duration, error) {
	start := time.Now()
	if err := w.writeTrace(path, p); err != nil {
		return 0, fmt.Errorf("write trace: %w", err)
	}
	tr, err := w.open(path)
	if err != nil {
		return 0, fmt.Errorf("open trace: %w", err)
	}
	if _, err := newEngine(); err != nil {
		tr.Close()
		return 0, err
	}
	elapsed := time.Since(start)
	return elapsed, tr.Close()
}

// outcome is what one pass produced: the jobs it folded or replayed and
// the digest of its snapshot, against which every pass is checked.
type outcome struct {
	jobs   int
	digest [sha256.Size]byte
	replay replay.Result
}

// digestOf hashes a sink snapshot and, for a replay, the scalar fleet
// summary beside it.
func digestOf(sink analyze.Sink, res *replay.Result) ([sha256.Size]byte, error) {
	snap, err := sink.MarshalBinary()
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	h := sha256.New()
	h.Write(snap)
	if res != nil {
		fmt.Fprintf(h, "%+v", *res)
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d, nil
}

// check verifies that a pass covered the whole trace and, for a replay,
// that every submitted job either completed or was rejected.
func (o outcome) check(want int) error {
	if o.jobs != want {
		return fmt.Errorf("pass covered %d jobs, trace holds %d", o.jobs, want)
	}
	if r := o.replay; r.Submitted != 0 && r.Completed+r.Rejected != r.Submitted {
		return fmt.Errorf("replay completed %d + rejected %d != submitted %d", r.Completed, r.Rejected, r.Submitted)
	}
	return nil
}

// recordOnly hides every capability of a source but Next, so a fold over it
// takes the record-at-a-time path.
type recordOnly struct{ src stream.Source }

func (r recordOnly) Next() (pai.Features, error) { return r.src.Next() }

// reference computes the outcome every pass is compared with: a
// record-at-a-time fold (or replay) on one worker, with no cache.
func (w workload) reference(ctx context.Context, path string) (outcome, error) {
	tr, err := w.open(path)
	if err != nil {
		return outcome{}, err
	}
	defer tr.Close()
	eng, err := pai.New(pai.WithBackend(backend.AnalyticalName), pai.WithParallelism(1))
	if err != nil {
		return outcome{}, err
	}
	return w.run(ctx, eng, recordOnly{tr.src})
}

// run is one untraced pass: the public Engine call the workload names.
func (w workload) run(ctx context.Context, eng *pai.Engine, src pai.JobSource) (outcome, error) {
	var sink pai.Sink
	switch w.kind {
	case foldReport:
		rs, err := eng.NewReportSink(pai.ToAllReduceLocal)
		if err != nil {
			return outcome{}, err
		}
		sink = rs
	case foldBreakdown:
		sink = pai.NewBreakdownAccumulator()
	case replayTrace:
		res, err := eng.Replay(ctx, src, pai.WithReplayServers(replayServers), pai.WithReplayPolicy(replayPolicy))
		if err != nil {
			return outcome{}, err
		}
		d, err := digestOf(res.Sinks, &res.Stats)
		return outcome{jobs: res.Stats.Submitted, digest: d, replay: res.Stats}, err
	}
	n, err := eng.StreamInto(ctx, src, sink)
	if err != nil {
		return outcome{}, err
	}
	d, err := digestOf(sink, nil)
	return outcome{jobs: n, digest: d}, err
}

// runTraced is one traced pass. It composes the same pipeline the Engine
// builds for run — backend, cache, fold or replay, sinks — from the
// internal packages, with every seam wrapped so its time is charged to l.
// It returns the pass outcome and the cache's counters.
func (w workload) runTraced(ctx context.Context, src stream.Source, l *ledger) (outcome, evalcache.Stats, error) {
	spec := backend.DefaultSpec()
	b, err := backend.New(backend.AnalyticalName, spec)
	if err != nil {
		return outcome{}, evalcache.Stats{}, err
	}
	cache, err := evalcache.New(traceEvaluator(b, &l.backend), spec, cacheEntries)
	if err != nil {
		return outcome{}, evalcache.Stats{}, err
	}
	ev := traceEvaluator(cache, &l.evaluator)
	src = traceSource(src, &l.source)
	par := runtime.NumCPU()

	var sink analyze.Sink
	switch w.kind {
	case foldReport:
		pr, err := project.NewWithEvaluator(traceEvaluator(cache, &l.projection), spec.Config)
		if err != nil {
			return outcome{}, evalcache.Stats{}, err
		}
		ps, err := analyze.NewProjectionSink(pr, project.ToAllReduceLocal)
		if err != nil {
			return outcome{}, evalcache.Stats{}, err
		}
		sink = analyze.NewMultiSink(l.traceSinks(
			analyze.NewBreakdownAccumulator(),
			analyze.NewComponentCDFSink(),
			analyze.NewHardwareCDFSink(),
			ps,
		)...)
	case foldBreakdown:
		sink = l.traceSinks(analyze.NewBreakdownAccumulator())[0]
	case replayTrace:
		c, err := cluster.New(spec.Config, replayServers)
		if err != nil {
			return outcome{}, evalcache.Stats{}, err
		}
		util, err := replay.NewUtilizationSink(replay.DefaultUtilizationWindow, c.NumGPUs())
		if err != nil {
			return outcome{}, evalcache.Stats{}, err
		}
		sink = analyze.NewMultiSink(l.traceSinks(replay.NewCounterSink(), replay.NewQueueDelaySink(), util)...)
		l.delivery.last = time.Now()
		start := time.Now()
		res, err := replay.Run(ctx, ev, par, src, replay.Config{Cluster: c, Policy: replayPolicy}, sink)
		l.run.end(start)
		if err != nil {
			return outcome{}, evalcache.Stats{}, err
		}
		d, err := digestOf(sink, &res)
		return outcome{jobs: res.Submitted, digest: d, replay: res}, cache.Stats(), err
	}
	l.delivery.last = time.Now()
	n, err := analyze.FoldInto(ctx, ev, par, src, sink)
	if err != nil {
		return outcome{}, evalcache.Stats{}, err
	}
	d, err := digestOf(sink, nil)
	return outcome{jobs: n, digest: d}, cache.Stats(), err
}
