// Package replay is the discrete-event cluster replay engine: it streams an
// arrival-stamped trace from any stream.Source through the Table II
// placement rules of internal/sched against an internal/cluster inventory,
// with per-job durations predicted by a backend evaluator, and folds
// fleet-level outcomes (queue delays, occupancy timelines, admission
// counters) into analyze.Sink aggregates.
//
// The pipeline has two halves. Per-job evaluation rides stream.Evaluate —
// chunked, parallel, cache-eligible — which delivers results to a single
// goroutine in submission order. That goroutine runs the event loop: it
// advances simulated time to each arrival, releases completed jobs'
// GPUs, admits or rejects the arrival, queues it under the configured
// scheduling policy, and places queue heads greedily on the most-free
// servers. Because the loop is single-threaded and fed in input order, a
// replay is deterministic: same trace + same Config means byte-identical
// sink snapshots regardless of evaluation parallelism.
//
// With capacity at least the trace's peak concurrency and the FIFO policy,
// queueing never engages: every job starts the instant it arrives, outcomes
// are dispatched in submission order, and plain sinks (breakdowns, CDFs)
// receive the exact Add sequence the streaming evaluation path produces —
// so their snapshots are byte-identical to Engine.StreamInto over the same
// records.
package replay

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/analyze"
	"repro/internal/backend"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/stream"
	"repro/internal/workload"
)

// ErrNoArrivals reports a trace without arrival stamps: every record's
// arrival_sec is zero (or absent). Replay is a queueing simulation over the
// arrival process, so an unstamped trace is almost always a mistake —
// regenerate it with `tracegen -rate R`, or set Config.AllowUnstamped for a
// deliberate batch replay where every job is submitted at t=0.
var ErrNoArrivals = errors.New("replay: trace carries no arrival stamps (arrival_sec); generate one with tracegen -rate, or allow batch replay explicitly")

// ErrUnsortedArrivals reports a trace whose records are not in
// nondecreasing arrival_sec order. The replay consumes arrivals as a
// time-ordered event stream; sort or regenerate the trace.
var ErrUnsortedArrivals = errors.New("replay: arrivals are not in nondecreasing order")

// Config parameterizes one replay run.
type Config struct {
	// Cluster is the capacity inventory the replay schedules against.
	Cluster *cluster.Cluster
	// Policy names a registered scheduling policy (sched.PolicyNames);
	// empty selects FIFO.
	Policy string
	// Steps maps a job to its training-step count, which scales the
	// predicted step time into the job's runtime. Nil runs every job for
	// one step.
	Steps func(index int, f workload.Features) int
	// QueueLimit, when positive, is the admission bound: an arrival that
	// finds QueueLimit jobs already pending is rejected instead of queued.
	// Zero means no bound.
	QueueLimit int
	// StragglerFraction samples that fraction of admitted jobs (by a
	// deterministic hash of the submission index) as stragglers.
	StragglerFraction float64
	// StragglerFactor multiplies a straggler's runtime; <= 0 means 1 (no
	// slowdown).
	StragglerFactor float64
	// StragglerSeed decorrelates the straggler sample across runs.
	StragglerSeed int64
	// AllowUnstamped accepts traces whose records all arrive at t=0 (a
	// batch replay) instead of failing with ErrNoArrivals.
	AllowUnstamped bool
}

// Outcome is the replay's per-job result: the evaluated record plus the
// scheduling decision. OutcomeSinks receive one Outcome per submission, in
// submission order for arrivals and in placement order for starts (the two
// coincide whenever queueing never engages).
type Outcome struct {
	// Index is the job's 0-based position in the submission stream.
	Index int
	// Job is the feature record as submitted.
	Job workload.Features
	// Times is the backend's per-step breakdown (never straggler-scaled;
	// plain sinks fold the model's prediction, not the injected fault).
	Times core.Times
	// Steps is the number of training steps replayed.
	Steps int
	// GPUs is the total GPU allocation; Servers the distinct servers used.
	GPUs, Servers int
	// Arrival, Start and Finish are simulation times in seconds. Rejected
	// jobs carry Start = Finish = Arrival.
	Arrival, Start, Finish float64
	// Duration is the scheduled runtime (Times.Total() x Steps, times the
	// straggler factor when Straggler).
	Duration float64
	// Straggler marks jobs sampled for straggler slowdown.
	Straggler bool
	// Rejected marks jobs refused admission; Reason says why.
	Rejected bool
	Reason   string
}

// Wait is the job's queueing delay (Start - Arrival); zero for rejected
// jobs.
func (o Outcome) Wait() float64 { return o.Start - o.Arrival }

// GPUSeconds is the job's occupancy integral; zero for rejected jobs.
func (o Outcome) GPUSeconds() float64 { return float64(o.GPUs) * (o.Finish - o.Start) }

// OutcomeSink is the fleet-level fold surface: sinks that understand
// scheduling outcomes (queue delay, utilization, admission counters)
// implement it beside analyze.Sink. The replay dispatches an Outcome to
// OutcomeSinks and a plain Add(f, times) to every other sink (MultiSinks
// are walked member by member); rejected jobs reach only OutcomeSinks.
type OutcomeSink interface {
	AddOutcome(o Outcome) error
}

// Result summarizes one replay run. The distributional views live in the
// sinks; Result carries the scalar fleet aggregates every caller wants.
type Result struct {
	// Policy is the scheduling policy the run used.
	Policy string
	// Servers and GPUs echo the cluster capacity.
	Servers, GPUs int
	// Submitted = Completed + Rejected; Stragglers counts the sampled
	// slow jobs among the completed.
	Submitted, Completed, Rejected, Stragglers int
	// Makespan is the last completion time; Horizon the last arrival time.
	Makespan, Horizon float64
	// GPUSeconds integrates GPU occupancy over all completed jobs.
	GPUSeconds float64
	// Utilization is GPUSeconds / (GPUs x Makespan).
	Utilization float64
	// TotalQueueDelay sums Start - Arrival over completed jobs.
	TotalQueueDelay float64
	// MaxQueueDepth is the largest pending-queue length observed.
	MaxQueueDepth int
}

// MeanQueueDelay is the average queueing delay of completed jobs.
func (r Result) MeanQueueDelay() float64 {
	if r.Completed == 0 {
		return 0
	}
	return r.TotalQueueDelay / float64(r.Completed)
}

// Run replays every job from src through the scheduler under cfg,
// evaluating per-step times through ev over a pool of parallelism workers,
// and dispatches per-job outcomes into sink (which may be nil, or an
// analyze.MultiSink bundling OutcomeSinks with plain sinks). It returns the
// fleet-level summary.
func Run(ctx context.Context, ev backend.Evaluator, parallelism int, src stream.Source, cfg Config, sink analyze.Sink) (Result, error) {
	if cfg.Cluster == nil {
		return Result{}, fmt.Errorf("replay: nil cluster")
	}
	if cfg.StragglerFraction < 0 || cfg.StragglerFraction > 1 || math.IsNaN(cfg.StragglerFraction) {
		return Result{}, fmt.Errorf("replay: straggler fraction %v outside [0,1]", cfg.StragglerFraction)
	}
	factor := cfg.StragglerFactor
	if factor <= 0 {
		factor = 1
	}
	if math.IsNaN(factor) || math.IsInf(factor, 0) {
		return Result{}, fmt.Errorf("replay: straggler factor %v must be finite", cfg.StragglerFactor)
	}
	pol, err := sched.NewPolicy(cfg.Policy)
	if err != nil {
		return Result{}, fmt.Errorf("replay: %w", err)
	}

	st := newState(cfg, pol, factor, sink)
	_, err = stream.Evaluate(ctx, ev, src, parallelism, func(r stream.Result) error {
		return st.submit(r.Index, r.Job, r.Times)
	})
	if err != nil {
		return Result{}, err
	}
	if err := st.drain(); err != nil {
		return Result{}, err
	}
	if !cfg.AllowUnstamped && st.submitted > 1 && !st.sawArrival {
		return Result{}, ErrNoArrivals
	}
	return st.result(), nil
}

// state is the single-threaded event loop: all fields are touched only from
// the stream collector goroutine.
type state struct {
	cfg     Config
	policy  sched.Policy
	factor  float64
	sink    analyze.Sink
	servers []cluster.Server

	gpusPerServer int
	totalGPUs     int

	// free[s] is server s's currently free GPU count; index buckets the
	// servers by free[s] for placement, and moves is its per-attempt undo
	// log.
	free  []int
	index freeIndex
	moves []move

	pending pendingQueue
	events  eventHeap
	seq     int
	// spare holds released events' allocation slices for tryPlace to
	// reuse.
	spare [][]allocation

	now         float64
	lastArrival float64
	sawArrival  bool

	submitted, completed, rejected, stragglers int
	gpuSeconds, totalWait, makespan, horizon   float64
	maxQueueDepth                              int
}

func newState(cfg Config, pol sched.Policy, factor float64, sink analyze.Sink) *state {
	n := cfg.Cluster.NumServers()
	st := &state{
		cfg:           cfg,
		policy:        pol,
		factor:        factor,
		sink:          sink,
		gpusPerServer: cfg.Cluster.Config().GPUsPerServer,
		totalGPUs:     cfg.Cluster.NumGPUs(),
		free:          make([]int, n),
	}
	st.index = newFreeIndex(n, st.gpusPerServer)
	st.servers = make([]cluster.Server, n)
	for i := 0; i < n; i++ {
		srv, _ := cfg.Cluster.Server(i)
		st.servers[i] = srv
		st.free[i] = srv.NumGPUs
		st.index.add(srv.NumGPUs, i)
	}
	st.pending.policy = pol
	return st
}

// submit processes one evaluated arrival: advance time, admit or reject,
// queue, and schedule whatever fits.
func (st *state) submit(index int, f workload.Features, times core.Times) error {
	arrival := f.ArrivalSec
	if arrival < st.lastArrival {
		return fmt.Errorf("%w: job %d (%q) arrives at %gs after a job at %gs",
			ErrUnsortedArrivals, index, f.Name, arrival, st.lastArrival)
	}
	st.lastArrival = arrival
	if arrival > 0 {
		st.sawArrival = true
	}
	if arrival > st.horizon {
		st.horizon = arrival
	}
	if err := st.advanceTo(arrival); err != nil {
		return err
	}
	st.now = arrival
	st.submitted++

	if f.CNodes < 1 {
		// Gangs are sized from CNodes; placement assumes every gang is
		// at least one GPU.
		return fmt.Errorf("replay: job %d (%q): CNodes must be positive, got %d", index, f.Name, f.CNodes)
	}
	steps := 1
	if st.cfg.Steps != nil {
		steps = st.cfg.Steps(index, f)
		if steps <= 0 {
			return fmt.Errorf("replay: job %d (%q): steps must be positive, got %d", index, f.Name, steps)
		}
	}

	place, perr := sched.PlacementFor(f, st.gpusPerServer)
	if perr != nil && !knownClass(f.Class) {
		// An unknown class is a malformed record, not an admission decision.
		return fmt.Errorf("replay: job %d: %w", index, perr)
	}
	// Admission: jobs the cluster can never host are rejected and counted
	// (the real cluster is far larger than any replay inventory), as are
	// arrivals past the queue bound.
	reason := ""
	switch {
	case perr != nil:
		reason = perr.Error()
	case place.NeedsNVLink && !st.cfg.Cluster.Config().HasNVLink:
		reason = fmt.Sprintf("class %v requires NVLink servers", f.Class)
	case place.Servers() > len(st.servers):
		reason = fmt.Sprintf("needs %d distinct servers, cluster has %d", place.Servers(), len(st.servers))
	case st.cfg.QueueLimit > 0 && st.pending.len() >= st.cfg.QueueLimit:
		reason = fmt.Sprintf("admission queue full (%d pending)", st.pending.len())
	}
	if reason != "" {
		st.rejected++
		return st.dispatch(Outcome{
			Index: index, Job: f, Times: times, Steps: steps,
			Arrival: arrival, Start: arrival, Finish: arrival,
			Rejected: true, Reason: reason,
		})
	}

	duration := times.Total() * float64(steps)
	straggler := st.cfg.StragglerFraction > 0 && sampleStraggler(st.cfg.StragglerSeed, index, st.cfg.StragglerFraction)
	if straggler {
		duration *= st.factor
		st.stragglers++
	}
	gangs := append([]int(nil), place.Gangs...)
	// Largest gang first: the same fit-hardest-first greedy order
	// sched.SimulateWith uses.
	for i := 1; i < len(gangs); i++ {
		for j := i; j > 0 && gangs[j] > gangs[j-1]; j-- {
			gangs[j], gangs[j-1] = gangs[j-1], gangs[j]
		}
	}
	st.pending.push(pendingJob{
		q: sched.QueuedJob{Index: index, Arrival: arrival, Duration: duration, GPUs: place.GPUs()},
		f: f, times: times, steps: steps,
		gangs: gangs, distinct: place.Distinct, straggler: straggler,
	})
	if st.pending.len() > st.maxQueueDepth {
		st.maxQueueDepth = st.pending.len()
	}
	return st.schedule()
}

// knownClass reports whether the class is one of the six Table II (+PEARL)
// classes the placement rules cover.
func knownClass(c workload.Class) bool {
	switch c {
	case workload.OneWorkerOneGPU, workload.OneWorkerNGPU, workload.AllReduceLocal,
		workload.PSWorker, workload.AllReduceCluster, workload.PEARL:
		return true
	}
	return false
}

// advanceTo processes every completion event up to and including time t,
// re-scheduling after each release instant.
func (st *state) advanceTo(t float64) error {
	for st.events.len() > 0 && st.events.items[0].time <= t {
		at := st.events.items[0].time
		for st.events.len() > 0 && st.events.items[0].time == at {
			alloc := st.events.pop().alloc
			st.release(alloc)
			st.spare = append(st.spare, alloc[:0])
		}
		st.now = at
		if err := st.schedule(); err != nil {
			return err
		}
	}
	return nil
}

// schedule starts queue heads while they fit (head-of-line blocking under
// the configured policy's order).
func (st *state) schedule() error {
	for st.pending.len() > 0 {
		head := st.pending.head()
		alloc, ok := st.tryPlace(head.gangs, head.distinct)
		if !ok {
			return nil
		}
		j := st.pending.pop()
		st.take(alloc)
		start := st.now
		finish := start + j.q.Duration
		st.completed++
		st.gpuSeconds += float64(j.q.GPUs) * j.q.Duration
		st.totalWait += start - j.q.Arrival
		if finish > st.makespan {
			st.makespan = finish
		}
		st.events.push(event{time: finish, seq: st.seq, alloc: alloc})
		st.seq++
		if err := st.dispatch(Outcome{
			Index: j.q.Index, Job: j.f, Times: j.times, Steps: j.steps,
			GPUs: j.q.GPUs, Servers: len(alloc),
			Arrival: j.q.Arrival, Start: start, Finish: finish,
			Duration: j.q.Duration, Straggler: j.straggler,
		}); err != nil {
			return err
		}
	}
	return nil
}

// allocation is one server's share of a placed job.
type allocation struct {
	server, gpus int
}

// take moves a placed job's GPUs from free to held.
func (st *state) take(alloc []allocation) {
	for _, a := range alloc {
		st.setFree(a.server, st.free[a.server]-a.gpus)
	}
}

// release returns a finished job's GPUs to the free pool.
func (st *state) release(alloc []allocation) {
	for _, a := range alloc {
		st.setFree(a.server, st.free[a.server]+a.gpus)
	}
}

// setFree sets server s's free GPU count to n, keeping the index in step.
func (st *state) setFree(s, n int) {
	st.index.remove(st.free[s], s)
	st.index.add(n, s)
	st.free[s] = n
}

// tryPlace attempts the greedy placement of gangs (largest first): each
// gang goes to the server with the most free GPUs that fits it, ties to the
// lowest server index, and a distinct placement never puts two gangs on one
// server. It returns the per-server allocation, or
// ok=false leaving no state modified.
//
// Outside an attempt the index holds every server s in bucket free[s], so
// a gang of g takes the lowest server of the highest non-empty bucket >= g:
// O(GPUsPerServer) count probes plus a scan to the bucket's first non-zero
// word, instead of a pass over every server. Within the attempt a chosen
// server drops g buckets (a distinct placement takes it out of the index
// instead), so later gangs see what earlier ones left, and the undo log
// restores the index before returning. A head that needs more GPUs than
// are free, or more distinct servers than have a free GPU, is refused
// before any probe; the check reads only the gangs and the bucket counts,
// which keeps a blocked head cheap to retry on every departure.
func (st *state) tryPlace(gangs []int, distinct bool) ([]allocation, bool) {
	x := &st.index
	gpus := 0
	for _, g := range gangs {
		gpus += g
	}
	if gpus > x.freeGPUs() || distinct && len(gangs) > len(st.free)-x.count[0] {
		return nil, false
	}
	moves := st.moves[:0]
	ok := true
	for _, g := range gangs {
		k := st.gpusPerServer
		for k >= g && x.count[k] == 0 {
			k--
		}
		if k < g {
			ok = false
			break
		}
		s := x.lowest(k)
		x.remove(k, s)
		to := -1
		if !distinct {
			to = k - g
			x.add(to, s)
		}
		moves = append(moves, move{server: s, from: k, to: to})
	}
	for i := len(moves) - 1; i >= 0; i-- {
		m := moves[i]
		if m.to >= 0 {
			x.remove(m.to, m.server)
		}
		x.add(m.from, m.server)
	}
	st.moves = moves
	if !ok {
		return nil, false
	}
	// Merge same-server entries (non-distinct placements may stack gangs)
	// into a slice a finished job released, when there is one.
	var alloc []allocation
	if n := len(st.spare); n > 0 {
		alloc, st.spare = st.spare[n-1], st.spare[:n-1]
	} else {
		alloc = make([]allocation, 0, len(moves))
	}
	for i, m := range moves {
		if n := len(alloc); n > 0 && alloc[n-1].server == m.server {
			alloc[n-1].gpus += gangs[i]
			continue
		}
		alloc = append(alloc, allocation{server: m.server, gpus: gangs[i]})
	}
	return alloc, true
}

// move is one tentative step of a placement attempt: server left bucket
// from for bucket to, or for no bucket (-1) when a distinct placement took
// it.
type move struct {
	server, from, to int
}

// freeIndex buckets servers by free GPU count: one bitset of server
// indices per count 0..GPUsPerServer, plus each bucket's population.
type freeIndex struct {
	words int      // uint64 words per bucket
	bits  []uint64 // bucket k is bits[k*words : (k+1)*words]
	count []int
}

func newFreeIndex(servers, gpusPerServer int) freeIndex {
	words := (servers + 63) / 64
	return freeIndex{
		words: words,
		bits:  make([]uint64, (gpusPerServer+1)*words),
		count: make([]int, gpusPerServer+1),
	}
}

func (x *freeIndex) add(k, s int) {
	x.bits[k*x.words+s/64] |= 1 << (s % 64)
	x.count[k]++
}

func (x *freeIndex) remove(k, s int) {
	x.bits[k*x.words+s/64] &^= 1 << (s % 64)
	x.count[k]--
}

// freeGPUs returns the free GPUs across all servers: sum of k*count[k].
func (x *freeIndex) freeGPUs() int {
	n := 0
	for k, c := range x.count {
		n += k * c
	}
	return n
}

// lowest returns the lowest server index in bucket k, which must be
// non-empty.
func (x *freeIndex) lowest(k int) int {
	for w, word := range x.bits[k*x.words : (k+1)*x.words] {
		if word != 0 {
			return w*64 + bits.TrailingZeros64(word)
		}
	}
	panic("replay: lowest of an empty free-capacity bucket")
}

// drain runs the simulation to completion after the last arrival.
func (st *state) drain() error {
	for st.events.len() > 0 || st.pending.len() > 0 {
		if st.events.len() == 0 {
			// Admission screens every queue entry for feasibility on an
			// empty cluster, so a stuck queue with no in-flight work is a
			// bug, not a trace property.
			return fmt.Errorf("replay: %d jobs pending with no running work (placement bug)", st.pending.len())
		}
		if err := st.advanceTo(st.events.items[0].time); err != nil {
			return err
		}
	}
	return nil
}

// dispatch routes one outcome into the sink tree: OutcomeSinks get the full
// outcome, MultiSinks are walked per member, and plain sinks get the
// evaluated record via Add — except for rejected jobs, which never ran and
// so never reach plain sinks.
func (st *state) dispatch(o Outcome) error {
	return dispatchInto(st.sink, o)
}

func dispatchInto(sink analyze.Sink, o Outcome) error {
	switch s := sink.(type) {
	case nil:
		return nil
	case *analyze.MultiSink:
		for _, m := range s.Sinks() {
			if err := dispatchInto(m, o); err != nil {
				return err
			}
		}
		return nil
	case OutcomeSink:
		return s.AddOutcome(o)
	default:
		if o.Rejected {
			return nil
		}
		return sink.Add(o.Job, o.Times)
	}
}

func (st *state) result() Result {
	r := Result{
		Policy:  st.policy.Name(),
		Servers: len(st.servers), GPUs: st.totalGPUs,
		Submitted: st.submitted, Completed: st.completed,
		Rejected: st.rejected, Stragglers: st.stragglers,
		Makespan: st.makespan, Horizon: st.horizon,
		GPUSeconds:      st.gpuSeconds,
		TotalQueueDelay: st.totalWait,
		MaxQueueDepth:   st.maxQueueDepth,
	}
	if st.makespan > 0 && st.totalGPUs > 0 {
		r.Utilization = st.gpuSeconds / (float64(st.totalGPUs) * st.makespan)
	}
	return r
}

// sampleStraggler deterministically samples a submission index into the
// straggler set: a splitmix64-style hash of (seed, index) compared against
// the fraction. Same seed + index always agree, so replays are reproducible
// across runs and parallelism levels.
func sampleStraggler(seed int64, index int, fraction float64) bool {
	x := uint64(seed) ^ (uint64(index)+1)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11)/(1<<53) < fraction
}
