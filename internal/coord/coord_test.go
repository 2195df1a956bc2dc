package coord

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analyze"
	"repro/internal/backend"
	"repro/internal/tracegen"
	"repro/internal/workload"
)

// testJobs generates a small deterministic trace.
func testJobs(tb testing.TB, n int) []workload.Features {
	tb.Helper()
	p := tracegen.Default()
	p.NumJobs = n
	tr, err := tracegen.Generate(p)
	if err != nil {
		tb.Fatal(err)
	}
	return tr.Jobs
}

// shardAcc folds the round-robin partition `index of shards` of jobs into a
// fresh accumulator — the deterministic per-shard work every test worker
// performs.
func shardAcc(tb testing.TB, b backend.Backend, jobs []workload.Features, shards, index int) (*analyze.BreakdownAccumulator, int) {
	tb.Helper()
	acc := analyze.NewBreakdownAccumulator()
	n := 0
	for i := index; i < len(jobs); i += shards {
		times, err := b.Breakdown(jobs[i])
		if err != nil {
			tb.Fatal(err)
		}
		if err := acc.Add(jobs[i], times); err != nil {
			tb.Fatal(err)
		}
		n++
	}
	return acc, n
}

// directFoldBytes is the reference result: per-shard accumulators merged in
// shard-index order, first shard as the fold base (Options.NewSink nil).
func directFoldBytes(tb testing.TB, b backend.Backend, jobs []workload.Features, shards int) []byte {
	tb.Helper()
	total, _ := shardAcc(tb, b, jobs, shards, 0)
	for i := 1; i < shards; i++ {
		acc, _ := shardAcc(tb, b, jobs, shards, i)
		if err := total.Merge(acc); err != nil {
			tb.Fatal(err)
		}
	}
	raw, err := total.MarshalBinary()
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

func testBackend(tb testing.TB) backend.Backend {
	tb.Helper()
	b, err := backend.New(backend.AnalyticalName, backend.DefaultSpec())
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// testRunner evaluates assignments over the shared job set, stamping the
// given provenance base.
func testRunner(tb testing.TB, b backend.Backend, jobs []workload.Features, base string) Runner {
	return func(ctx context.Context, a Assignment) (analyze.Sink, string, int, error) {
		acc, n := shardAcc(tb, b, jobs, a.Shards, a.Index)
		return acc, analyze.ShardMeta(base, a.Index), n, nil
	}
}

// snapshotBytes frames one accumulator the way a worker would.
func snapshotBytes(tb testing.TB, s analyze.Sink, meta string) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := analyze.WriteSnapshotMeta(&buf, s, meta); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func listen(tb testing.TB) net.Listener {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	return ln
}

// startWorkers launches n hint-less Work loops sharing run and returns a
// wait function that reports their errors.
func startWorkers(ctx context.Context, addr string, run Runner, n int) func() []error {
	return startHintedWorkers(ctx, addr, run, n, 0)
}

// startHintedWorkers is startWorkers with every worker advertising hint, so
// a run whose workers all hint hands out multi-cell ranges.
func startHintedWorkers(ctx context.Context, addr string, run Runner, n int, hint float64) func() []error {
	runs := make([]Runner, n)
	for i := range runs {
		runs[i] = run
	}
	return launch(ctx, addr, hint, runs)
}

// startGatedWorkers is startWorkers for the happy-path fold tests: every
// worker's runner waits until all n workers have been handed a range, so no
// cell folds — and the run cannot finish — before the last worker has
// joined. Hint-less workers pull one cell at a time, so with at least n
// cells each of them is handed one and the gate cannot deadlock.
func startGatedWorkers(ctx context.Context, addr string, run Runner, n int) func() []error {
	var joined atomic.Int32
	all := make(chan struct{})
	runs := make([]Runner, n)
	for i := range runs {
		var once sync.Once
		runs[i] = func(ctx context.Context, a Assignment) (analyze.Sink, string, int, error) {
			once.Do(func() {
				if joined.Add(1) == int32(n) {
					close(all)
				}
			})
			select {
			case <-all:
			case <-ctx.Done():
				return nil, "", 0, ctx.Err()
			}
			return run(ctx, a)
		}
	}
	return launch(ctx, addr, 0, runs)
}

func launch(ctx context.Context, addr string, hint float64, runs []Runner) func() []error {
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	for i, run := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = Work(ctx, addr, hint, run)
		}()
	}
	return func() []error {
		wg.Wait()
		return errs
	}
}

// TestRunMatchesDirectFold: networked workers over loopback TCP must fold
// a static shard grid — one cell per round-robin shard — to bytes
// identical to the in-process shard merge. In the eight-by-eight case the
// gate holds every cell until each hint-less worker has been handed a
// shard, so the run only finishes if no early worker took several shards
// and left later ones idle.
func TestRunMatchesDirectFold(t *testing.T) {
	b := testBackend(t)
	jobs := testJobs(t, 400)
	for _, tc := range []struct{ shards, workers int }{{3, 2}, {8, 8}} {
		t.Run(fmt.Sprintf("%dshards_%dworkers", tc.shards, tc.workers), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			shards := tc.shards
			const base = "coordtest run=1"

			ln := listen(t)
			wait := startGatedWorkers(ctx, ln.Addr().String(), testRunner(t, b, jobs, base), tc.workers)
			sink, counts, _, err := Run(ctx, ln, shards, []byte("payload"), Options{Provenance: base})
			if err != nil {
				t.Fatal(err)
			}
			for _, werr := range wait() {
				if werr != nil {
					t.Errorf("worker error: %v", werr)
				}
			}
			total := 0
			for i, c := range counts {
				want := len(jobs) / shards
				if i < len(jobs)%shards {
					want++
				}
				if c != want {
					t.Errorf("shard %d count = %d, want %d", i, c, want)
				}
				total += c
			}
			if total != len(jobs) {
				t.Errorf("total jobs = %d, want %d", total, len(jobs))
			}
			raw, err := sink.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(raw, directFoldBytes(t, b, jobs, shards)) {
				t.Error("networked fold is not byte-identical to the direct shard merge")
			}
		})
	}
}

// TestRunWithSinkFactory: Options.NewSink switches to the FoldSinks fold
// shape (empty base, merge every shard); bytes must still match.
func TestRunWithSinkFactory(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	b := testBackend(t)
	jobs := testJobs(t, 300)
	const shards = 2

	ln := listen(t)
	wait := startWorkers(ctx, ln.Addr().String(), testRunner(t, b, jobs, ""), 1)
	sink, _, _, err := Run(ctx, ln, shards, nil, Options{
		NewSink: func() (analyze.Sink, error) { return analyze.NewBreakdownAccumulator(), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	wait()
	raw, err := sink.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, directFoldBytes(t, b, jobs, shards)) {
		t.Error("factory-based fold is not byte-identical to the direct shard merge")
	}
}

// crashAfterAssign connects like a worker, accepts one range, and drops the
// connection without replying — the observable shape of a worker killed
// mid-range. It reports the received range on assigned.
func crashAfterAssign(t *testing.T, addr string, assigned chan<- rangeAssign) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Error(err)
		return
	}
	defer conn.Close()
	if err := writeFrame(conn, msgHello, encodeHello()); err != nil {
		t.Error(err)
		return
	}
	if _, _, err := readFrame(conn); err != nil {
		t.Error(err)
		return
	}
	typ, p, err := readFrame(conn)
	if err != nil || typ != msgRange {
		t.Errorf("crash worker got %q frame, err %v", typ, err)
		return
	}
	a, err := decodeRange(p)
	if err != nil {
		t.Error(err)
		return
	}
	assigned <- a
	// Dying here: no result, no fail message — just a dead connection.
}

// TestShardTimeoutRequeues: a worker that accepts a range and never
// responds must lose it to the per-cell deadline.
func TestShardTimeoutRequeues(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	b := testBackend(t)
	jobs := testJobs(t, 200)
	const shards = 2
	const base = "coordtest run=timeout"

	ln := listen(t)
	assigned := make(chan rangeAssign, 1)
	// Sleeper: accepts one range, then hangs until its conn is closed.
	go func() {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		if err := writeFrame(conn, msgHello, encodeHello()); err != nil {
			t.Error(err)
			return
		}
		if _, _, err := readFrame(conn); err != nil {
			t.Error(err)
			return
		}
		typ, p, err := readFrame(conn)
		if err != nil || typ != msgRange {
			t.Errorf("sleeper got %q frame, err %v", typ, err)
			return
		}
		a, _ := decodeRange(p)
		assigned <- a
		readFrame(conn) // blocks until the coordinator abandons us
	}()

	runDone := make(chan error, 1)
	var sink analyze.Sink
	go func() {
		var err error
		sink, _, _, err = Run(ctx, ln, shards, nil, Options{
			Provenance:   base,
			ShardTimeout: 200 * time.Millisecond,
		})
		runDone <- err
	}()
	select {
	case <-assigned:
	case <-ctx.Done():
		t.Fatal("sleeper never received an assignment")
	}
	wait := startWorkers(ctx, ln.Addr().String(), testRunner(t, b, jobs, base), 1)
	if err := <-runDone; err != nil {
		t.Fatal(err)
	}
	wait()
	raw, err := sink.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, directFoldBytes(t, b, jobs, shards)) {
		t.Error("post-timeout fold is not byte-identical to the direct shard merge")
	}
}

// TestFailureReportsRetryInPlace: a worker that reports a shard failure
// stays connected and gets the shard again; success on a later attempt
// completes the run.
func TestFailureReportsRetryInPlace(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	b := testBackend(t)
	jobs := testJobs(t, 150)
	const shards = 2
	const base = "coordtest run=flaky"

	flaky := func(ctx context.Context, a Assignment) (analyze.Sink, string, int, error) {
		if a.Attempt == 1 {
			return nil, "", 0, fmt.Errorf("transient failure on shard %d", a.Index)
		}
		acc, n := shardAcc(t, b, jobs, a.Shards, a.Index)
		return acc, analyze.ShardMeta(base, a.Index), n, nil
	}
	ln := listen(t)
	wait := startWorkers(ctx, ln.Addr().String(), flaky, 1)
	sink, _, _, err := Run(ctx, ln, shards, nil, Options{Provenance: base, MaxAttempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	wait()
	raw, err := sink.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, directFoldBytes(t, b, jobs, shards)) {
		t.Error("retried fold is not byte-identical to the direct shard merge")
	}
}

// TestAllWorkersLostFailsRun: when the only worker dies with shards still
// queued, the stall detector must fail the run instead of waiting forever
// for a worker that will never come back.
func TestAllWorkersLostFailsRun(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ln := listen(t)
	assigned := make(chan rangeAssign, 1)
	go crashAfterAssign(t, ln.Addr().String(), assigned)
	start := time.Now()
	_, _, _, err := Run(ctx, ln, 2, nil, Options{ShardTimeout: 200 * time.Millisecond})
	if err == nil || !strings.Contains(err.Error(), "no active workers") {
		t.Errorf("all-workers-lost run returned %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("stall detection took %v", elapsed)
	}
	select {
	case <-assigned:
	default:
		t.Error("crash worker never got an assignment (stall path untested)")
	}
}

// TestGarbageConnectionIgnored: a client that fails the handshake must not
// disturb the run.
func TestGarbageConnectionIgnored(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	b := testBackend(t)
	jobs := testJobs(t, 120)
	const base = "coordtest run=garbage"

	ln := listen(t)
	go func() {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return
		}
		conn.Write([]byte("GET / HTTP/1.1\r\n\r\n"))
		conn.Close()
	}()
	wait := startWorkers(ctx, ln.Addr().String(), testRunner(t, b, jobs, base), 1)
	sink, _, _, err := Run(ctx, ln, 2, nil, Options{Provenance: base})
	if err != nil {
		t.Fatal(err)
	}
	wait()
	if sink == nil {
		t.Fatal("no sink")
	}
}

// TestOfferRejectsDuplicateShard is the at-most-once guard: a second
// snapshot for an already-folded shard must be rejected via its provenance,
// not silently folded twice.
func TestOfferRejectsDuplicateShard(t *testing.T) {
	b := testBackend(t)
	jobs := testJobs(t, 60)
	const base = "coordtest run=dup"
	st := newState(context.Background(), 2, nil, Options{Provenance: base})

	acc, n := shardAcc(t, b, jobs, 2, 0)
	snap := snapshotBytes(t, acc, analyze.ShardMeta(base, 0))
	if err := st.offer(0, snap, n); err != nil {
		t.Fatal(err)
	}
	err := st.offer(0, snap, n)
	if !errors.Is(err, ErrDuplicateShard) {
		t.Errorf("duplicate shard accepted: %v", err)
	}
	// The recorded shard is untouched by the rejected duplicate.
	if st.counts[0] != n || st.sinks[0] == nil || st.remaining != 1 {
		t.Errorf("duplicate mutated state: counts=%v remaining=%d", st.counts, st.remaining)
	}
}

// TestOfferRejectsForeignAndMislabeled: snapshots from another run, or
// carrying the wrong shard index, must not fold.
func TestOfferRejectsForeignAndMislabeled(t *testing.T) {
	b := testBackend(t)
	jobs := testJobs(t, 60)
	const base = "coordtest run=prov"
	st := newState(context.Background(), 2, nil, Options{Provenance: base})
	acc, n := shardAcc(t, b, jobs, 2, 0)

	// Wrong run base.
	foreign := snapshotBytes(t, acc, analyze.ShardMeta("another run", 0))
	if err := st.offer(0, foreign, n); err == nil || !strings.Contains(err.Error(), "different run") {
		t.Errorf("foreign base accepted: %v", err)
	}
	// Right base, wrong index.
	misfiled := snapshotBytes(t, acc, analyze.ShardMeta(base, 1))
	if err := st.offer(0, misfiled, n); err == nil || !strings.Contains(err.Error(), "does not name shard") {
		t.Errorf("mislabeled index accepted: %v", err)
	}
	// No provenance at all.
	bare := snapshotBytes(t, acc, "")
	if err := st.offer(0, bare, n); err == nil {
		t.Error("provenance-free snapshot accepted")
	}
	// Corrupted snapshot bytes fail the checksum, not the process.
	good := snapshotBytes(t, acc, analyze.ShardMeta(base, 0))
	good[len(good)-1] ^= 0xff
	if err := st.offer(0, good, n); err == nil {
		t.Error("corrupted snapshot accepted")
	}
	if st.remaining != 2 {
		t.Errorf("rejected offers consumed shards: remaining=%d", st.remaining)
	}
}

// TestOfferConsistencyWithoutPinnedBase: with no expected provenance, the
// first accepted base becomes the requirement.
func TestOfferConsistencyWithoutPinnedBase(t *testing.T) {
	b := testBackend(t)
	jobs := testJobs(t, 60)
	st := newState(context.Background(), 2, nil, Options{})
	acc0, n0 := shardAcc(t, b, jobs, 2, 0)
	acc1, n1 := shardAcc(t, b, jobs, 2, 1)

	if err := st.offer(0, snapshotBytes(t, acc0, analyze.ShardMeta("run A", 0)), n0); err != nil {
		t.Fatal(err)
	}
	if err := st.offer(1, snapshotBytes(t, acc1, analyze.ShardMeta("run B", 1)), n1); err == nil {
		t.Error("inconsistent base accepted")
	}
	if err := st.offer(1, snapshotBytes(t, acc1, analyze.ShardMeta("run A", 1)), n1); err != nil {
		t.Errorf("matching base rejected: %v", err)
	}
}

// TestFailFastWorkerDefersToHealthy: a worker that deterministically fails
// a shard must not burn the shard's whole attempt budget re-serving its own
// failure; after each failure it backs off, and a healthy worker that joins
// completes the run.
func TestFailFastWorkerDefersToHealthy(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	b := testBackend(t)
	jobs := testJobs(t, 100)
	const base = "coordtest run=failfast"

	failedOnce := make(chan struct{}, 1)
	broken := func(ctx context.Context, a Assignment) (analyze.Sink, string, int, error) {
		select {
		case failedOnce <- struct{}{}:
		default:
		}
		return nil, "", 0, fmt.Errorf("deterministically broken worker")
	}
	ln := listen(t)
	waitBroken := startWorkers(ctx, ln.Addr().String(), broken, 1)

	runDone := make(chan error, 1)
	var sink analyze.Sink
	go func() {
		var err error
		sink, _, _, err = Run(ctx, ln, 1, nil, Options{Provenance: base})
		runDone <- err
	}()
	select {
	case <-failedOnce:
	case <-ctx.Done():
		t.Fatal("broken worker never received an assignment")
	}
	waitHealthy := startWorkers(ctx, ln.Addr().String(), testRunner(t, b, jobs, base), 1)
	if err := <-runDone; err != nil {
		t.Fatalf("run failed despite a healthy worker: %v", err)
	}
	waitBroken()
	waitHealthy()
	raw, err := sink.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, directFoldBytes(t, b, jobs, 1)) {
		t.Error("fold after deferral is not byte-identical to the direct fold")
	}
}

// TestExpectWorkersFailsWhenNoneConnect: with ExpectWorkers armed (the
// spawn-local mode), a run whose workers never dial in must fail at the
// shard timeout instead of hanging forever.
func TestExpectWorkersFailsWhenNoneConnect(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ln := listen(t)
	start := time.Now()
	_, _, _, err := Run(ctx, ln, 1, nil, Options{ShardTimeout: 200 * time.Millisecond, ExpectWorkers: true})
	if err == nil || !strings.Contains(err.Error(), "no active workers") {
		t.Errorf("worker-less armed run returned %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("stall detection took %v", elapsed)
	}
}

// TestAttemptBudgetExhaustionFailsRun: one cell of a multi-cell range that
// fails on every attempt must still fail the run with the budget named —
// the cells folded around it do not count as progress that resets its
// budget — and the lone, idle worker must be told the run aborted.
func TestAttemptBudgetExhaustionFailsRun(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	b := testBackend(t)
	jobs := testJobs(t, 100)
	const cells = 4
	const base = "coordtest run=budget"
	const bad = cells - 1
	poisoned := func(ctx context.Context, a Assignment) (analyze.Sink, string, int, error) {
		if a.Index == bad {
			return nil, "", 0, fmt.Errorf("cell %d is poisoned", a.Index)
		}
		acc, n := cellFold(t, b, jobs, a.Shards, a.Index)
		return acc, analyze.ShardMeta(base, a.Index), n, nil
	}
	ln := listen(t)
	wait := startWorkers(ctx, ln.Addr().String(), poisoned, 1)
	_, _, _, err := Run(ctx, ln, cells, nil, Options{Provenance: base, MaxAttempts: 3})
	if err == nil || !strings.Contains(err.Error(), "budget spent") {
		t.Errorf("exhausted retries returned %v", err)
	}
	if err != nil && !strings.Contains(err.Error(), fmt.Sprintf("shard %d failed", bad)) {
		t.Errorf("budget error does not name cell %d: %v", bad, err)
	}
	for _, werr := range wait() {
		if werr == nil || !strings.Contains(werr.Error(), "aborted") {
			t.Errorf("worker saw a failed run as clean: %v", werr)
		}
	}
}

// TestAllWorkersFailedShardBurnsBudget is the anti-livelock guard: when
// every connected worker fails a shard, the back-off only delays the
// re-serve — the attempt budget terminates the run with the budget error,
// in bounded time, even with no ShardTimeout set.
func TestAllWorkersFailedShardBurnsBudget(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	broken := func(ctx context.Context, a Assignment) (analyze.Sink, string, int, error) {
		return nil, "", 0, fmt.Errorf("broken everywhere")
	}
	ln := listen(t)
	wait := startWorkers(ctx, ln.Addr().String(), broken, 2)
	start := time.Now()
	_, _, _, err := Run(ctx, ln, 1, nil, Options{MaxAttempts: 4})
	if err == nil || !strings.Contains(err.Error(), "budget spent") {
		t.Errorf("universally-failing shard returned %v", err)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Errorf("budget exhaustion took %v (livelock?)", elapsed)
	}
	wait()
}

// TestHandshakeFrameCapped: an unauthenticated peer claiming a huge hello
// frame must be rejected without the coordinator allocating it.
func TestHandshakeFrameCapped(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	b := testBackend(t)
	jobs := testJobs(t, 80)
	const base = "coordtest run=hugehello"

	ln := listen(t)
	go func() {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return
		}
		defer conn.Close()
		// Frame header claiming a 256 MiB hello, then silence: the
		// coordinator must drop us, not allocate and wait.
		hdr := []byte{msgHello, 0x00, 0x00, 0x00, 0x10}
		conn.Write(hdr)
		// Hold the conn open; the run below must complete regardless.
		buf := make([]byte, 1)
		conn.Read(buf)
	}()
	wait := startWorkers(ctx, ln.Addr().String(), testRunner(t, b, jobs, base), 1)
	start := time.Now()
	sink, _, _, err := Run(ctx, ln, 1, nil, Options{Provenance: base})
	if err != nil {
		t.Fatal(err)
	}
	wait()
	if sink == nil {
		t.Fatal("no sink")
	}
	// The bogus peer must not have pinned the run for its handshakeTimeout.
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Errorf("huge-hello peer stalled the run for %v", elapsed)
	}
}

// TestReadFrameCapped: the cap rejects oversized length fields before any
// payload allocation or read.
func TestReadFrameCapped(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, msgHello, encodeHello()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readFrameCapped(bytes.NewReader(buf.Bytes()), maxHelloFrame); err != nil {
		t.Errorf("valid hello rejected: %v", err)
	}
	huge := []byte{msgHello, 0xff, 0xff, 0xff, 0x0f}
	_, _, err := readFrameCapped(bytes.NewReader(huge), maxHelloFrame)
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("oversized frame accepted: %v", err)
	}
}
