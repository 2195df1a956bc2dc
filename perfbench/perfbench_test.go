package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	pai "repro"
	"repro/internal/analyze"
	"repro/internal/backend"
	"repro/internal/evalcache"
	"repro/internal/replay"
	"repro/internal/stream"
)

// testJobs keeps each workload's trace small enough for a unit test.
var testJobs = map[string]int{
	"report-colbin":    20_000,
	"ingest-ndjson":    5_000,
	"replay-contended": 5_000,
}

// capabilities lists which of the given interfaces v implements.
func capabilities(v any, ifaces ...reflect.Type) []bool {
	has := make([]bool, len(ifaces))
	for i, it := range ifaces {
		has[i] = reflect.TypeOf(v).Implements(it)
	}
	return has
}

func iface[T any]() reflect.Type { return reflect.TypeOf((*T)(nil)).Elem() }

// writeTestTrace writes a small trace of w's shape and returns its path.
func writeTestTrace(t *testing.T, w workload, jobs int) string {
	t.Helper()
	p := w.params(3)
	p.NumJobs = jobs
	path := filepath.Join(t.TempDir(), "trace."+w.format)
	if err := w.writeTrace(path, p); err != nil {
		t.Fatal(err)
	}
	return path
}

// blockOnly and payloadOnly are sources with one capability each beside
// Next; the wrappers must not add or drop either.
type blockOnly struct{ stream.Source }

func (blockOnly) NextBlock(*pai.Columns) error { return nil }

type payloadOnly struct{ stream.Source }

func (payloadOnly) NextPayload() (func(*pai.Columns) error, int, error) { return nil, 0, nil }

func TestSourceWrapperKeepsCapabilities(t *testing.T) {
	ifaces := []reflect.Type{iface[stream.Source](), iface[stream.BlockSource](), iface[stream.PayloadSource]()}
	var srcs []stream.Source
	for _, w := range workloads[:2] { // one colbin, one ndjson
		tr, err := w.open(writeTestTrace(t, w, 100))
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		srcs = append(srcs, tr.src)
	}
	slice := stream.NewSliceSource(nil)
	srcs = append(srcs, slice, blockOnly{slice}, payloadOnly{slice}, recordOnly{slice})
	for _, src := range srcs {
		want := capabilities(src, ifaces...)
		if got := capabilities(traceSource(src, new(span)), ifaces...); !reflect.DeepEqual(got, want) {
			t.Errorf("%T: wrapper implements %v of %v, inner %v", src, got, ifaces, want)
		}
	}
	if _, ok := srcs[0].(stream.PayloadSource); !ok {
		t.Errorf("colbin source %T lost its payload capability before wrapping", srcs[0])
	}
}

// plainEvaluator has no capability beyond Breakdown.
type plainEvaluator struct{ backend.Evaluator }

// plainBackend is a Backend without the column fast path.
type plainBackend struct{ backend.Backend }

func TestEvaluatorWrapperKeepsCapabilities(t *testing.T) {
	ifaces := []reflect.Type{iface[backend.Evaluator](), iface[backend.ColumnEvaluator](), iface[backend.Backend]()}
	spec := backend.DefaultSpec()
	b, err := backend.New(backend.AnalyticalName, spec)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := evalcache.New(b, spec, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range []backend.Evaluator{b, cache, plainEvaluator{b}, plainBackend{b}} {
		want := capabilities(ev, ifaces...)
		if got := capabilities(traceEvaluator(ev, new(span)), ifaces...); !reflect.DeepEqual(got, want) {
			t.Errorf("%T: wrapper implements %v of %v, inner %v", ev, got, ifaces, want)
		}
	}

	// A reconfigured traced backend is still traced and keeps its
	// capabilities.
	var sp span
	tb := traceEvaluator(b, &sp).(backend.Backend)
	rb, err := tb.Reconfigure(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := capabilities(rb, ifaces...), capabilities(b, ifaces...); !reflect.DeepEqual(got, want) {
		t.Errorf("reconfigured wrapper implements %v, inner %v", got, want)
	}
	job, err := pai.NewTraceSource(pai.DefaultTraceParams())
	if err != nil {
		t.Fatal(err)
	}
	f, err := job.Next()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rb.Breakdown(f); err != nil {
		t.Fatal(err)
	}
	if sp.calls.Load() != 1 || sp.ns.Load() <= 0 {
		t.Errorf("reconfigured backend charged %d calls, %d ns; want 1 call", sp.calls.Load(), sp.ns.Load())
	}
}

// plainSink has no capability beyond Sink.
type plainSink struct{ analyze.Sink }

func TestSinkWrapperKeepsCapabilities(t *testing.T) {
	ifaces := []reflect.Type{iface[analyze.Sink](), iface[analyze.ColumnSink](), iface[replay.OutcomeSink]()}
	util, err := replay.NewUtilizationSink(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	sinks := []analyze.Sink{
		analyze.NewBreakdownAccumulator(),
		analyze.NewComponentCDFSink(),
		analyze.NewHardwareCDFSink(),
		replay.NewCounterSink(),
		replay.NewQueueDelaySink(),
		util,
		plainSink{analyze.NewBreakdownAccumulator()},
	}
	var l ledger
	wrapped := l.traceSinks(sinks...)
	for i, s := range sinks {
		want := capabilities(s, ifaces...)
		if got := capabilities(wrapped[i], ifaces...); !reflect.DeepEqual(got, want) {
			t.Errorf("%T: wrapper implements %v of %v, inner %v", s, got, ifaces, want)
		}
		if wrapped[i].Kind() != s.Kind() {
			t.Errorf("wrapper kind %q, inner %q", wrapped[i].Kind(), s.Kind())
		}
	}
}

// TestPassesMatchReference runs each workload's reference, untraced and
// traced passes directly: all three must produce the same snapshot digest,
// and a second reference over a trace from the same seed must too.
func TestPassesMatchReference(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			jobs := testJobs[w.name]
			path := writeTestTrace(t, w, jobs)
			ref, err := w.reference(ctx, path)
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.check(jobs); err != nil {
				t.Fatal(err)
			}
			again, err := w.reference(ctx, writeTestTrace(t, w, jobs))
			if err != nil {
				t.Fatal(err)
			}
			if again.digest != ref.digest {
				t.Errorf("same seed gave digests %x and %x", ref.digest, again.digest)
			}

			for _, mode := range []passMode{timedPass, tracedPass} {
				ps := measurePass(ctx, w, path, ref, mode)
				if ps.Err != "" {
					t.Errorf("%s pass: %s", mode, ps.Err)
				}
				if ps.Jobs != jobs {
					t.Errorf("%s pass covered %d jobs, want %d", mode, ps.Jobs, jobs)
				}
			}

			// A pass whose snapshot differs from the reference fails but
			// stays measured.
			bad := ref
			bad.digest[0]++
			if ps := measurePass(ctx, w, path, bad, timedPass); ps.Err == "" || ps.Jobs != jobs {
				t.Errorf("pass against a wrong reference: error %q, %d jobs; want a failure over %d jobs", ps.Err, ps.Jobs, jobs)
			}
		})
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	ctx := context.Background()
	w := workloads[1]
	var digests [2][32]byte
	for i, seed := range []int64{1, 2} {
		p := w.params(seed)
		p.NumJobs = 2_000
		path := filepath.Join(t.TempDir(), "trace")
		if err := w.writeTrace(path, p); err != nil {
			t.Fatal(err)
		}
		ref, err := w.reference(ctx, path)
		if err != nil {
			t.Fatal(err)
		}
		digests[i] = ref.digest
	}
	if digests[0] == digests[1] {
		t.Error("seeds 1 and 2 gave the same digest")
	}
}

// benchmarkSpec is the part of BENCHMARK.json the result must match.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestResultMatchesBenchmarkJSON runs every workload briefly in both modes
// and checks that the result line carries exactly the metrics BENCHMARK.json
// declares, with their units, and that every pass matched its reference.
func TestResultMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	if !reflect.DeepEqual(names, declared) {
		t.Errorf("BENCHMARK.json declares workloads %v, the benchmark runs %v", declared, names)
	}

	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range spec.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		want[true][m.Name] = m.Unit
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w.name, seed: 5, seconds: 1, trace: trace, dir: t.TempDir(), jobs: testJobs[w.name]}
			_, res, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct %v, %d of %d passes failed", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			got := map[string]string{}
			for name, m := range res.Metrics {
				got[name] = m.Unit
			}
			if !reflect.DeepEqual(got, want[trace]) {
				t.Errorf("%s trace=%v: emitted %v, BENCHMARK.json declares %v", w.name, trace, got, want[trace])
			}
		}
	}
}
