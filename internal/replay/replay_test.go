package replay

import (
	"bytes"
	"container/heap"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/analyze"
	"repro/internal/backend"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/sched"
	"repro/internal/stream"
	"repro/internal/workload"
)

func testEvaluator(t *testing.T) backend.Evaluator {
	t.Helper()
	ev, err := backend.New(backend.AnalyticalName, backend.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func testCluster(t *testing.T, servers int) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(hw.Baseline(), servers)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// quickJob is a 1w1g record whose step time is dominated by a single compute
// term: 7.7e12 FLOPs at 11 TFLOPS x 70% = exactly 1 second per step.
func quickJob(name string, arrival float64) workload.Features {
	return workload.Features{
		Name: name, Class: workload.OneWorkerOneGPU, CNodes: 1, BatchSize: 8,
		FLOPs: 7.7e12, ArrivalSec: arrival,
	}
}

func psJob(name string, workers int, arrival float64) workload.Features {
	return workload.Features{
		Name: name, Class: workload.PSWorker, CNodes: workers, BatchSize: 8,
		FLOPs: 7.7e12, MemAccessBytes: 1e6, InputBytes: 1e3,
		DenseWeightBytes: 1e6, ArrivalSec: arrival,
	}
}

// captureSink records every outcome in dispatch order.
type captureSink struct {
	outcomes []Outcome
}

func (c *captureSink) Kind() string                                { return "test-capture" }
func (c *captureSink) Add(f workload.Features, t core.Times) error { return nil }
func (c *captureSink) Merge(analyze.Sink) error                    { return nil }
func (c *captureSink) AddOutcome(o Outcome) error                  { c.outcomes = append(c.outcomes, o); return nil }
func (c *captureSink) MarshalBinary() ([]byte, error)              { return nil, nil }
func (c *captureSink) UnmarshalBinary([]byte) error                { return nil }

// plainCountSink counts plain Add calls — the view a breakdown accumulator
// would get.
type plainCountSink struct {
	adds int
}

func (p *plainCountSink) Kind() string                                { return "test-plain" }
func (p *plainCountSink) Add(f workload.Features, t core.Times) error { p.adds++; return nil }
func (p *plainCountSink) Merge(analyze.Sink) error                    { return nil }
func (p *plainCountSink) MarshalBinary() ([]byte, error)              { return nil, nil }
func (p *plainCountSink) UnmarshalBinary([]byte) error                { return nil }

func runReplay(t *testing.T, jobs []workload.Features, cfg Config, sink analyze.Sink) Result {
	t.Helper()
	res, err := Run(context.Background(), testEvaluator(t), 2, stream.NewSliceSource(jobs), cfg, sink)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunValidation(t *testing.T) {
	ev := testEvaluator(t)
	ctx := context.Background()
	src := func() stream.Source { return stream.NewSliceSource([]workload.Features{quickJob("a", 0)}) }
	cl := testCluster(t, 1)

	if _, err := Run(ctx, ev, 1, src(), Config{}, nil); err == nil {
		t.Error("expected error for nil cluster")
	}
	for _, frac := range []float64{-0.1, 1.5, math.NaN()} {
		if _, err := Run(ctx, ev, 1, src(), Config{Cluster: cl, StragglerFraction: frac}, nil); err == nil {
			t.Errorf("expected error for straggler fraction %v", frac)
		}
	}
	if _, err := Run(ctx, ev, 1, src(), Config{Cluster: cl, StragglerFraction: 0.5, StragglerFactor: math.Inf(1)}, nil); err == nil {
		t.Error("expected error for infinite straggler factor")
	}
	if _, err := Run(ctx, ev, 1, src(), Config{Cluster: cl, Policy: "no-such-policy"}, nil); err == nil {
		t.Error("expected error for unknown policy")
	}
	badSteps := Config{Cluster: cl, AllowUnstamped: true,
		Steps: func(int, workload.Features) int { return 0 }}
	if _, err := Run(ctx, ev, 1, src(), badSteps, nil); err == nil {
		t.Error("expected error for non-positive steps")
	}
	// The analytical backend refuses such a record itself; the replay
	// guards placement against evaluators that do not.
	noNodes := quickJob("a", 0)
	noNodes.Class, noNodes.CNodes = workload.OneWorkerNGPU, 0
	if _, err := Run(ctx, flopsEvaluator{}, 1, stream.NewSliceSource([]workload.Features{noNodes}), Config{Cluster: cl}, nil); err == nil {
		t.Error("expected error for zero CNodes")
	}
}

func TestUnstampedTraceRefused(t *testing.T) {
	ev := testEvaluator(t)
	ctx := context.Background()
	cl := testCluster(t, 1)
	jobs := []workload.Features{quickJob("a", 0), quickJob("b", 0)}

	_, err := Run(ctx, ev, 1, stream.NewSliceSource(jobs), Config{Cluster: cl}, nil)
	if !errors.Is(err, ErrNoArrivals) {
		t.Errorf("unstamped multi-job trace: err = %v, want ErrNoArrivals", err)
	}
	// A single job carries no arrival process; it replays without stamps.
	if _, err := Run(ctx, ev, 1, stream.NewSliceSource(jobs[:1]), Config{Cluster: cl}, nil); err != nil {
		t.Errorf("single unstamped job should replay: %v", err)
	}
	// AllowUnstamped opts into batch replay.
	res, err := Run(ctx, ev, 1, stream.NewSliceSource(jobs), Config{Cluster: cl, AllowUnstamped: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2 {
		t.Errorf("batch replay completed %d, want 2", res.Completed)
	}
}

func TestUnsortedArrivalsRefused(t *testing.T) {
	ev := testEvaluator(t)
	jobs := []workload.Features{quickJob("a", 5), quickJob("b", 3)}
	_, err := Run(context.Background(), ev, 1, stream.NewSliceSource(jobs),
		Config{Cluster: testCluster(t, 1)}, nil)
	if !errors.Is(err, ErrUnsortedArrivals) {
		t.Errorf("err = %v, want ErrUnsortedArrivals", err)
	}
}

// TestQueueingWhenFull mirrors the sched package's canonical scenario on the
// replay engine: one 8-GPU server, nine 10-second 1-GPU jobs submitted at
// t=0 — the ninth waits exactly one service time.
func TestQueueingWhenFull(t *testing.T) {
	jobs := make([]workload.Features, 9)
	for i := range jobs {
		jobs[i] = quickJob("j", 0)
	}
	cap := &captureSink{}
	res := runReplay(t, jobs, Config{
		Cluster:        testCluster(t, 1),
		AllowUnstamped: true,
		Steps:          func(int, workload.Features) int { return 10 },
	}, cap)

	if res.Completed != 9 || res.Rejected != 0 {
		t.Fatalf("completed/rejected = %d/%d, want 9/0", res.Completed, res.Rejected)
	}
	if math.Abs(res.Makespan-20) > 1e-9 {
		t.Errorf("makespan = %v, want 20", res.Makespan)
	}
	if math.Abs(res.TotalQueueDelay-10) > 1e-9 {
		t.Errorf("total queue delay = %v, want 10", res.TotalQueueDelay)
	}
	if math.Abs(res.GPUSeconds-90) > 1e-9 {
		t.Errorf("GPU-seconds = %v, want 90", res.GPUSeconds)
	}
	// 90 GPU-seconds over 8 GPUs x 20s.
	if math.Abs(res.Utilization-90.0/160) > 1e-9 {
		t.Errorf("utilization = %v", res.Utilization)
	}
	if res.MaxQueueDepth != 1 {
		t.Errorf("max queue depth = %d, want 1", res.MaxQueueDepth)
	}
	waited := 0
	for _, o := range cap.outcomes {
		if o.Wait() > 1e-9 {
			waited++
			if math.Abs(o.Wait()-10) > 1e-9 {
				t.Errorf("waiting job waited %v, want 10", o.Wait())
			}
		}
	}
	if waited != 1 {
		t.Errorf("%d jobs waited, want 1", waited)
	}
}

// TestAdmissionRejections: jobs the cluster can never host are rejected and
// reach OutcomeSinks but never plain sinks.
func TestAdmissionRejections(t *testing.T) {
	// A 4-worker PS job needs 4 distinct servers; the cluster has 2.
	jobs := []workload.Features{quickJob("ok", 0), psJob("wide", 4, 1)}
	cap := &captureSink{}
	plain := &plainCountSink{}
	res := runReplay(t, jobs, Config{Cluster: testCluster(t, 2)},
		analyze.NewMultiSink(cap, plain))

	if res.Completed != 1 || res.Rejected != 1 {
		t.Fatalf("completed/rejected = %d/%d, want 1/1", res.Completed, res.Rejected)
	}
	var rej *Outcome
	for i := range cap.outcomes {
		if cap.outcomes[i].Rejected {
			rej = &cap.outcomes[i]
		}
	}
	if rej == nil {
		t.Fatal("no rejected outcome dispatched")
	}
	if rej.Reason == "" {
		t.Error("rejected outcome should carry a reason")
	}
	if rej.Start != rej.Arrival || rej.Finish != rej.Arrival {
		t.Error("rejected outcome should carry Start = Finish = Arrival")
	}
	if rej.GPUSeconds() != 0 || rej.Wait() != 0 {
		t.Error("rejected outcome should carry zero occupancy and wait")
	}
	if plain.adds != 1 {
		t.Errorf("plain sink saw %d adds, want 1 (rejected jobs never ran)", plain.adds)
	}
}

func TestNVLinkRejection(t *testing.T) {
	cl, err := cluster.New(hw.BaselineNoNVLink(), 2)
	if err != nil {
		t.Fatal(err)
	}
	ar := workload.Features{
		Name: "ar", Class: workload.AllReduceLocal, CNodes: 4, BatchSize: 8,
		FLOPs: 7.7e12, DenseWeightBytes: 1e6,
	}
	res := runReplay(t, []workload.Features{ar},
		Config{Cluster: cl, AllowUnstamped: true}, nil)
	if res.Rejected != 1 {
		t.Errorf("AllReduce on a no-NVLink cluster: rejected = %d, want 1", res.Rejected)
	}
}

func TestQueueLimitRejects(t *testing.T) {
	// Fill the single server with eight long jobs, then submit two more:
	// the first queues (depth 1), the second finds the queue full.
	var jobs []workload.Features
	for i := 0; i < 8; i++ {
		jobs = append(jobs, quickJob("blocker", 0))
	}
	jobs = append(jobs, quickJob("queued", 1), quickJob("over", 2))
	res := runReplay(t, jobs, Config{
		Cluster:    testCluster(t, 1),
		QueueLimit: 1,
		Steps:      func(int, workload.Features) int { return 100 },
	}, nil)
	if res.Completed != 9 || res.Rejected != 1 {
		t.Errorf("completed/rejected = %d/%d, want 9/1", res.Completed, res.Rejected)
	}
}

// TestPolicyOrdersDispatch: with the cluster blocked until t=100 and a long
// job queued before a short one, FIFO starts the earlier arrival first and
// SJF the shorter job first. Both released at the same instant, the policies
// differ exactly in dispatch order.
func TestPolicyOrdersDispatch(t *testing.T) {
	var jobs []workload.Features
	for i := 0; i < 8; i++ {
		jobs = append(jobs, quickJob("blocker", 0))
	}
	jobs = append(jobs, quickJob("long", 1), quickJob("short", 2))
	steps := func(index int, f workload.Features) int {
		switch f.Name {
		case "blocker":
			return 100
		case "long":
			return 5
		default:
			return 1
		}
	}

	order := func(policy string) []string {
		cap := &captureSink{}
		res := runReplay(t, jobs, Config{
			Cluster: testCluster(t, 1), Policy: policy, Steps: steps,
		}, cap)
		if res.Completed != 10 {
			t.Fatalf("%s: completed %d, want 10", policy, res.Completed)
		}
		var names []string
		for _, o := range cap.outcomes {
			if o.Job.Name != "blocker" {
				names = append(names, o.Job.Name)
				if math.Abs(o.Start-100) > 1e-9 {
					t.Errorf("%s: %s started at %v, want 100", policy, o.Job.Name, o.Start)
				}
			}
		}
		return names
	}

	if got := order(sched.FIFOName); got[0] != "long" || got[1] != "short" {
		t.Errorf("fifo dispatch order = %v, want [long short]", got)
	}
	if got := order(sched.SJFName); got[0] != "short" || got[1] != "long" {
		t.Errorf("sjf dispatch order = %v, want [short long]", got)
	}
}

// TestStragglers: fraction 1 marks every completed job, the factor scales
// Duration but never Times, and the sample is a pure function of (seed,
// index).
func TestStragglers(t *testing.T) {
	jobs := []workload.Features{quickJob("a", 0), quickJob("b", 1)}
	cap := &captureSink{}
	res := runReplay(t, jobs, Config{
		Cluster:           testCluster(t, 1),
		StragglerFraction: 1,
		StragglerFactor:   3,
	}, cap)
	if res.Stragglers != 2 {
		t.Fatalf("stragglers = %d, want 2", res.Stragglers)
	}
	for _, o := range cap.outcomes {
		if !o.Straggler {
			t.Error("every job should be sampled at fraction 1")
		}
		want := o.Times.Total() * float64(o.Steps) * 3
		if math.Abs(o.Duration-want) > 1e-9 {
			t.Errorf("duration = %v, want %v (3x the model's runtime)", o.Duration, want)
		}
	}

	for _, seed := range []int64{0, 1, 42} {
		for index := 0; index < 100; index++ {
			a := sampleStraggler(seed, index, 0.3)
			b := sampleStraggler(seed, index, 0.3)
			if a != b {
				t.Fatalf("sampleStraggler(%d, %d) not deterministic", seed, index)
			}
		}
	}
}

// TestDeterministicAcrossParallelism pins the replay determinism contract:
// the same congested trace replayed at parallelism 1 and 8 produces
// byte-identical snapshots of all three fleet sinks.
func TestDeterministicAcrossParallelism(t *testing.T) {
	var jobs []workload.Features
	for i := 0; i < 300; i++ {
		arrival := float64(i) * 0.05
		if i%7 == 3 {
			jobs = append(jobs, psJob("ps", 1+i%2, arrival))
		} else {
			jobs = append(jobs, quickJob("w", arrival))
		}
	}
	ev := testEvaluator(t)

	snapshot := func(parallelism int) []byte {
		cl := testCluster(t, 2)
		util, err := NewUtilizationSink(10, cl.NumGPUs())
		if err != nil {
			t.Fatal(err)
		}
		sink := analyze.NewMultiSink(NewCounterSink(), NewQueueDelaySink(), util)
		_, err = Run(context.Background(), ev, parallelism, stream.NewSliceSource(jobs), Config{
			Cluster:           cl,
			Steps:             func(int, workload.Features) int { return 40 },
			StragglerFraction: 0.25,
			StragglerFactor:   2,
			StragglerSeed:     7,
		}, sink)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := analyze.WriteSnapshot(&buf, sink); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	base := snapshot(1)
	for _, par := range []int{2, 8} {
		if !bytes.Equal(base, snapshot(par)) {
			t.Errorf("parallelism %d produced a different fleet snapshot", par)
		}
	}
}

// flopsEvaluator predicts one second of compute per TFLOP and nothing
// else, so synthetic traces pick their own runtimes independently of the
// backend models.
type flopsEvaluator struct{}

func (flopsEvaluator) Breakdown(f workload.Features) (core.Times, error) {
	return core.Times{ComputeFLOPs: f.FLOPs / 1e12}, nil
}

// contendedJobs is a synthetic trace that keeps a small Baseline pod (8
// GPUs per server) busy with a standing queue: half 1w1g jobs, the rest
// single-server 1wNg, distinct-server PS and multi-server
// AllReduce-Cluster gangs. Arrival gaps are uniform over 1 to
// 2*meanGapSec-1 seconds and runtimes 1 to 100 seconds, all whole, so every
// time, delay and GPU-second a replay derives from them is an integer held
// exactly in float64.
func contendedJobs(n int, seed int64, meanGapSec int) []workload.Features {
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]workload.Features, n)
	arrival := 0.0
	for i := range jobs {
		arrival += float64(1 + rng.Intn(2*meanGapSec-1))
		f := workload.Features{
			Name: fmt.Sprintf("job-%d", i), Class: workload.OneWorkerOneGPU, CNodes: 1,
			BatchSize: 8, FLOPs: float64(1+rng.Intn(100)) * 1e12, ArrivalSec: arrival,
		}
		switch r := rng.Intn(20); {
		case r < 10:
		case r < 14:
			f.Class, f.CNodes = workload.OneWorkerNGPU, 2+rng.Intn(7)
		case r < 17:
			f.Class, f.CNodes = workload.PSWorker, 1+rng.Intn(7)
		default:
			f.Class, f.CNodes = workload.AllReduceCluster, 4+rng.Intn(21)
		}
		jobs[i] = f
	}
	return jobs
}

// TestGoldenContendedReplay pins the exact schedule of a contended replay,
// per policy: the sha256 of the counter and utilization snapshots, every
// job's start, finish and GPU/server counts, and the Result. Unlike the
// parallelism check, which compares the current code with itself, this
// catches any placement change that moves a queued job's start. Every
// hashed value is a whole number of seconds or GPU-seconds, so no rounding
// can differ between architectures, including those whose compiler fuses
// multiply-adds. The queue-delay sketch is left out for that reason: its
// running variance and log-spaced bin edges are not exact; the delays it
// folds are pinned through the starts. The digests were recorded with the
// original linear-scan placement.
func TestGoldenContendedReplay(t *testing.T) {
	jobs := contendedJobs(2000, 11, 8)
	for _, tc := range []struct {
		policy, digest string
	}{
		{sched.FIFOName, "d799427b4b214fc3b366aa9b36a2603cdded534cf8ff9d7d236b7da5a080e7b3"},
		{sched.SJFName, "6ec0adc8c49b9b76a4fafc8cc1013579c2b5b0261e17b1c15bf0f304cd7815e6"},
	} {
		t.Run(tc.policy, func(t *testing.T) {
			cl := testCluster(t, 6)
			util, err := NewUtilizationSink(10, cl.NumGPUs())
			if err != nil {
				t.Fatal(err)
			}
			counters, outcomes := NewCounterSink(), &captureSink{}
			res, err := Run(context.Background(), flopsEvaluator{}, 2, stream.NewSliceSource(jobs), Config{
				Cluster:           cl,
				Policy:            tc.policy,
				StragglerFraction: 0.1,
				StragglerFactor:   3,
				StragglerSeed:     5,
			}, analyze.NewMultiSink(counters, util, outcomes))
			if err != nil {
				t.Fatal(err)
			}
			if res.MaxQueueDepth < 20 || res.Rejected == 0 || res.Completed+res.Rejected != len(jobs) {
				t.Fatalf("trace is not contended as intended: %+v", res)
			}
			h := sha256.New()
			for _, s := range []analyze.Sink{counters, util} {
				snap, err := s.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				h.Write(snap)
			}
			for _, o := range outcomes.outcomes {
				fmt.Fprintf(h, "%d %v %v %d %d %v %v\n", o.Index, o.Start, o.Finish, o.GPUs, o.Servers, o.Straggler, o.Rejected)
			}
			fmt.Fprintf(h, "%+v", res)
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.digest {
				t.Errorf("digest = %s, want %s (result %+v)", got, tc.digest, res)
			}
		})
	}
}

// linearPlace is the reference placement tryPlace's index must reproduce:
// for each gang (largest first), scan every server for the one with the
// most free GPUs that fits it, ties to the lowest index, skipping servers
// a distinct placement already used.
func linearPlace(free, gangs []int, distinct bool) ([]allocation, bool) {
	used := make([]int, len(free))
	alloc := make([]allocation, 0, len(gangs))
	for _, g := range gangs {
		best, bestAvail := -1, -1
		for s := range free {
			if distinct && used[s] > 0 {
				continue
			}
			if avail := free[s] - used[s]; avail >= g && avail > bestAvail {
				best, bestAvail = s, avail
			}
		}
		if best < 0 {
			return nil, false
		}
		used[best] += g
		alloc = append(alloc, allocation{server: best, gpus: g})
	}
	// Merge same-server entries (non-distinct placements may stack gangs).
	merged := alloc[:0]
	for _, a := range alloc {
		if n := len(merged); n > 0 && merged[n-1].server == a.server {
			merged[n-1].gpus += a.gpus
			continue
		}
		merged = append(merged, a)
	}
	return merged, true
}

// checkIndex asserts the free-capacity index invariant: server s is in
// bucket free[s] and no other, and the bucket counts are the populations.
func checkIndex(t *testing.T, st *state) {
	t.Helper()
	x := &st.index
	for s, n := range st.free {
		for k := range x.count {
			in := x.bits[k*x.words+s/64]&(1<<(s%64)) != 0
			if in != (k == n) {
				t.Fatalf("server %d (free %d): membership of bucket %d is %v", s, n, k, in)
			}
		}
	}
	for k, c := range x.count {
		pop := 0
		for _, w := range x.bits[k*x.words : (k+1)*x.words] {
			pop += bits.OnesCount64(w)
		}
		if pop != c {
			t.Fatalf("bucket %d holds %d servers, count says %d", k, pop, c)
		}
	}
}

// TestIndexedPlacementMatchesLinearScan drives the replay state through
// random take/release sequences and compares every indexed placement
// attempt with the linear-scan oracle, over server counts that straddle
// bitset word boundaries and several server widths, for distinct and
// stacking gangs alike.
func TestIndexedPlacementMatchesLinearScan(t *testing.T) {
	pol, err := sched.NewPolicy(sched.FIFOName)
	if err != nil {
		t.Fatal(err)
	}
	for _, servers := range []int{1, 63, 64, 65, 130} {
		for _, width := range []int{1, 4, 8} {
			hc := hw.Baseline()
			hc.GPUsPerServer = width
			cl, err := cluster.New(hc, servers)
			if err != nil {
				t.Fatal(err)
			}
			st := newState(Config{Cluster: cl}, pol, 1, nil)
			rng := rand.New(rand.NewSource(int64(servers*10 + width)))
			var live [][]allocation
			placed, refused := 0, 0
			for step := 0; step < 3000; step++ {
				if len(live) > 0 && rng.Intn(4) == 0 {
					i := rng.Intn(len(live))
					st.release(live[i])
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
					checkIndex(t, st)
					continue
				}
				distinct := rng.Intn(2) == 0
				n := 1 + rng.Intn(4)
				if rng.Intn(8) == 0 {
					n = 1 + rng.Intn(servers+2) // wide heads probe the distinct-server gate
				}
				gangs := make([]int, n)
				for i := range gangs {
					gangs[i] = 1 + rng.Intn(width)
				}
				sort.Sort(sort.Reverse(sort.IntSlice(gangs)))

				want, wantOK := linearPlace(st.free, gangs, distinct)
				got, ok := st.tryPlace(gangs, distinct)
				if ok != wantOK || !reflect.DeepEqual(got, want) {
					t.Fatalf("servers=%d width=%d step %d: gangs %v distinct=%v free %v: got %v,%v want %v,%v",
						servers, width, step, gangs, distinct, st.free, got, ok, want, wantOK)
				}
				if !ok {
					refused++
					checkIndex(t, st)
					continue
				}
				placed++
				st.take(got)
				live = append(live, got)
				checkIndex(t, st)
			}
			if placed == 0 || refused == 0 {
				t.Errorf("servers=%d width=%d: %d placed, %d refused; want both", servers, width, placed, refused)
			}
		}
	}
}

// refPendingHeap is the container/heap pending queue the replay used
// before pendingQueue: whole pendingJobs boxed through any, ordered by the
// policy, ties by submission index. It stays as the oracle pendingQueue
// must pop in the same order.
type refPendingHeap struct {
	policy sched.Policy
	items  []pendingJob
}

func (h refPendingHeap) Len() int { return len(h.items) }
func (h refPendingHeap) Less(i, j int) bool {
	a, b := h.items[i].q, h.items[j].q
	if h.policy.Less(a, b) {
		return true
	}
	if h.policy.Less(b, a) {
		return false
	}
	return a.Index < b.Index
}
func (h refPendingHeap) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *refPendingHeap) Push(x any)   { h.items = append(h.items, x.(pendingJob)) }
func (h *refPendingHeap) Pop() any {
	old := h.items
	n := len(old)
	item := old[n-1]
	old[n-1] = pendingJob{}
	h.items = old[:n-1]
	return item
}

// refEventHeap is the container/heap completion queue eventHeap replaced:
// a min-heap on time, ties by start sequence.
type refEventHeap struct {
	items []event
}

func (h refEventHeap) Len() int { return len(h.items) }
func (h refEventHeap) Less(i, j int) bool {
	if h.items[i].time != h.items[j].time {
		return h.items[i].time < h.items[j].time
	}
	return h.items[i].seq < h.items[j].seq
}
func (h refEventHeap) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *refEventHeap) Push(x any)   { h.items = append(h.items, x.(event)) }
func (h *refEventHeap) Pop() any {
	old := h.items
	n := len(old)
	item := old[n-1]
	old[n-1] = event{}
	h.items = old[:n-1]
	return item
}

// queuedJob builds a pending job whose arrival, duration and GPU demand
// come from a handful of values, so the policies see many ties and the index tiebreak
// decides often.
func queuedJob(rng *rand.Rand, index int) pendingJob {
	gangs := make([]int, 1+rng.Intn(3))
	for i := range gangs {
		gangs[i] = 1 + rng.Intn(8)
	}
	return pendingJob{
		q: sched.QueuedJob{
			Index: index, Arrival: float64(rng.Intn(4)), Duration: float64(rng.Intn(4)),
			GPUs: 1 + rng.Intn(4),
		},
		f:     workload.Features{Name: fmt.Sprintf("job-%d", index), CNodes: len(gangs), ArrivalSec: float64(index)},
		times: core.Times{ComputeFLOPs: float64(index), WeightsByLink: map[hw.LinkClass]float64{hw.LinkPCIe: 1}},
		steps: 1 + index%5, gangs: gangs, distinct: index%2 == 0, straggler: index%3 == 0,
	}
}

// widestFirst is a test policy that leaves ties to the queue: it orders
// by GPU demand alone, so unlike fifo and sjf it never compares indices
// and the queue's own index tiebreak decides every tie.
type widestFirst struct{}

func (widestFirst) Name() string                   { return "widest-first" }
func (widestFirst) Less(a, b sched.QueuedJob) bool { return a.GPUs > b.GPUs }

// TestQueuesMatchContainerHeapOracle pushes and pops the typed queues and
// the container/heap oracles in the same seeded random interleaving, in
// bursts that grow the queues and drain them to empty, and asserts every
// pop returns the same job or event, under fifo, sjf and a policy that
// leaves every tie to the queue. Arrivals, durations, GPU demands and
// event times are drawn from a few values so ties are the common case.
func TestQueuesMatchContainerHeapOracle(t *testing.T) {
	fifo, err := sched.NewPolicy(sched.FIFOName)
	if err != nil {
		t.Fatal(err)
	}
	sjf, err := sched.NewPolicy(sched.SJFName)
	if err != nil {
		t.Fatal(err)
	}
	for seed, pol := range []sched.Policy{fifo, sjf, widestFirst{}} {
		t.Run(pol.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)))
			q, ref := pendingQueue{policy: pol}, refPendingHeap{policy: pol}
			var evs eventHeap
			var refEvs refEventHeap
			next, seq, pops := 0, 0, 0
			for step := 0; step < 40000; step++ {
				popBias := 2 // out of 5: the queues grow
				if step/2000%2 == 1 {
					popBias = 4 // the queues shrink, often to empty
				}
				if q.len() > 0 && rng.Intn(5) < popBias {
					got, want := q.pop(), heap.Pop(&ref).(pendingJob)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d: pending pop = index %d, want index %d", step, got.q.Index, want.q.Index)
					}
					gotE, wantE := evs.pop(), heap.Pop(&refEvs).(event)
					if !reflect.DeepEqual(gotE, wantE) {
						t.Fatalf("step %d: event pop = (%v, %d), want (%v, %d)", step, gotE.time, gotE.seq, wantE.time, wantE.seq)
					}
					pops++
					continue
				}
				j := queuedJob(rng, next)
				next++
				q.push(j)
				heap.Push(&ref, j)
				e := event{time: float64(rng.Intn(6)), seq: seq, alloc: []allocation{{server: seq % 7, gpus: 1}}}
				seq++
				evs.push(e)
				heap.Push(&refEvs, e)
				if q.len() != ref.Len() || evs.len() != refEvs.Len() {
					t.Fatalf("step %d: lengths %d/%d, oracle %d/%d", step, q.len(), evs.len(), ref.Len(), refEvs.Len())
				}
			}
			for q.len() > 0 {
				if got, want := q.pop(), heap.Pop(&ref).(pendingJob); got.q.Index != want.q.Index {
					t.Fatalf("drain: pending pop = index %d, want index %d", got.q.Index, want.q.Index)
				}
				if got, want := evs.pop(), heap.Pop(&refEvs).(event); got.seq != want.seq {
					t.Fatalf("drain: event pop = seq %d, want seq %d", got.seq, want.seq)
				}
			}
			if ref.Len() != 0 || refEvs.Len() != 0 || pops < 10000 {
				t.Fatalf("oracle left %d/%d items after %d interleaved pops", ref.Len(), refEvs.Len(), pops)
			}
		})
	}
}

// TestQueuesSteadyStateAllocFree warms a pending queue and an event heap
// to a standing depth, then asserts a push+pop cycle allocates nothing and
// every vacated slab slot is the zero pendingJob, so the slab pins no name,
// gang slice or link map of a job that left the queue.
func TestQueuesSteadyStateAllocFree(t *testing.T) {
	pol, err := sched.NewPolicy(sched.SJFName)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	const depth = 3 * slabPage / 2 // the slab spans two pages
	jobs := make([]pendingJob, 2*depth)
	allocs := make([][]allocation, len(jobs))
	for i := range jobs {
		jobs[i] = queuedJob(rng, i)
		allocs[i] = []allocation{{server: i, gpus: 1}}
	}
	q := pendingQueue{policy: pol}
	var evs eventHeap
	for i := range jobs {
		q.push(jobs[i])
		evs.push(event{time: float64(i % 9), seq: i, alloc: allocs[i]})
	}
	for q.len() > depth {
		q.pop()
		evs.pop()
	}

	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		q.push(jobs[i%len(jobs)])
		q.pop()
		evs.push(event{time: float64(i % 9), seq: len(jobs) + i, alloc: allocs[i%len(allocs)]})
		evs.pop()
		i++
	}); n != 0 {
		t.Errorf("steady-state push+pop allocates %v times per cycle, want 0", n)
	}

	for q.len() > 0 {
		slot := q.keys[0].slot
		q.pop()
		if !reflect.ValueOf(*q.job(slot)).IsZero() {
			t.Fatalf("popped slot %d still holds %+v", slot, *q.job(slot))
		}
	}
	if len(q.free) != int(q.slots) {
		t.Fatalf("%d free slots after draining, %d handed out", len(q.free), q.slots)
	}
	for _, slot := range q.free {
		if !reflect.ValueOf(*q.job(slot)).IsZero() {
			t.Fatalf("free slot %d still holds %+v", slot, *q.job(slot))
		}
	}
	for evs.len() > 0 {
		evs.pop()
	}
	for i, e := range evs.items[:cap(evs.items)] {
		if e.alloc != nil {
			t.Fatalf("drained event heap slot %d still references allocation %v", i, e.alloc)
		}
	}
}
