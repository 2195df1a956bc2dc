package coord

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analyze"
	"repro/internal/backend"
	"repro/internal/workload"
)

// cellFold folds the contiguous cell partition `cell of cells` of jobs into
// a fresh accumulator — the deterministic per-cell work every dynamic test
// worker performs.
func cellFold(tb testing.TB, b backend.Backend, jobs []workload.Features, cells, cell int) (*analyze.BreakdownAccumulator, int) {
	tb.Helper()
	per := (len(jobs) + cells - 1) / cells
	lo, hi := cell*per, (cell+1)*per
	if lo > len(jobs) {
		lo = len(jobs)
	}
	if hi > len(jobs) {
		hi = len(jobs)
	}
	acc := analyze.NewBreakdownAccumulator()
	for _, f := range jobs[lo:hi] {
		times, err := b.Breakdown(f)
		if err != nil {
			tb.Fatal(err)
		}
		if err := acc.Add(f, times); err != nil {
			tb.Fatal(err)
		}
	}
	return acc, hi - lo
}

// directCellFoldBytes is the reference result: per-cell accumulators merged
// in cell order, first cell as the fold base (Options.NewSink nil).
func directCellFoldBytes(tb testing.TB, b backend.Backend, jobs []workload.Features, cells int) []byte {
	tb.Helper()
	total, _ := cellFold(tb, b, jobs, cells, 0)
	for i := 1; i < cells; i++ {
		acc, _ := cellFold(tb, b, jobs, cells, i)
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

// testCellRunner folds each assigned cell, the healthy-worker shape.
// perCell, when non-nil, runs before every cell fold (hook for sleep
// injection and progress signalling).
func testCellRunner(tb testing.TB, b backend.Backend, jobs []workload.Features, base string, perCell func(cell int)) Runner {
	return func(ctx context.Context, a Assignment) (analyze.Sink, string, int, error) {
		if perCell != nil {
			perCell(a.Index)
		}
		acc, n := cellFold(tb, b, jobs, a.Shards, a.Index)
		return acc, analyze.ShardMeta(base, a.Index), n, nil
	}
}

// TestRunDynamicMatchesDirectFold: the work-stealing scheduler over loopback
// TCP must fold to bytes identical to the in-process cell merge, whatever
// span shapes the workers happened to pull.
func TestRunDynamicMatchesDirectFold(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	b := testBackend(t)
	jobs := testJobs(t, 400)
	const cells = 11
	const base = "dyntest run=1"

	ln := listen(t)
	wait := startGatedWorkers(ctx, ln.Addr().String(), testCellRunner(t, b, jobs, base, nil), 3)
	sink, counts, stats, err := Run(ctx, ln, cells, []byte("payload"), Options{Provenance: base})
	if err != nil {
		t.Fatal(err)
	}
	for _, werr := range wait() {
		if werr != nil {
			t.Errorf("worker error: %v", werr)
		}
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != len(jobs) {
		t.Errorf("total jobs = %d, want %d", total, len(jobs))
	}
	if stats.Workers != 3 {
		t.Errorf("stats.Workers = %d, want 3", stats.Workers)
	}
	if stats.Assignments < 2 {
		t.Errorf("stats.Assignments = %d; one cell per pull should force multiple pulls", stats.Assignments)
	}
	raw, err := sink.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, directCellFoldBytes(t, b, jobs, cells)) {
		t.Error("dynamic fold is not byte-identical to the direct cell merge")
	}
}

// TestRunDynamicStealsFromStraggler: a worker that stalls after its first
// cell must lose its in-flight tail to the per-cell deadline, the stolen
// cells must be absorbed by a healthy worker, and the merged result must
// still be byte-identical to the single-process fold.
func TestRunDynamicStealsFromStraggler(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	b := testBackend(t)
	jobs := testJobs(t, 300)
	const cells = 8
	const base = "dyntest run=steal"

	ln := listen(t)
	// Slow worker: full speed on its very first cell, then sleeps far past
	// the deadline before every later one — the straggler shape. It is the
	// only worker connected when the run starts and, like every worker here,
	// advertises a throughput hint, so it must pull a multi-cell span, emit
	// one cell, and stall with the rest in flight.
	firstEmitted := make(chan struct{}, 1)
	var sawFirst atomic.Bool
	slow := testCellRunner(t, b, jobs, base, func(cell int) {
		if sawFirst.CompareAndSwap(false, true) {
			return
		}
		select {
		case firstEmitted <- struct{}{}:
		default:
		}
		time.Sleep(2 * time.Second)
	})
	waitSlow := startHintedWorkers(ctx, ln.Addr().String(), slow, 1, 1000)

	type outcome struct {
		sink  analyze.Sink
		stats Stats
		err   error
	}
	runDone := make(chan outcome, 1)
	go func() {
		sink, _, stats, err := Run(ctx, ln, cells, nil, Options{
			Provenance:   base,
			ShardTimeout: 200 * time.Millisecond,
		})
		runDone <- outcome{sink, stats, err}
	}()

	// Once the straggler is provably stalled mid-range, bring up the healthy
	// worker that must steal the tail.
	select {
	case <-firstEmitted:
	case <-ctx.Done():
		t.Fatal("slow worker never started its second cell")
	}
	waitFast := startHintedWorkers(ctx, ln.Addr().String(), testCellRunner(t, b, jobs, base, nil), 1, 1000)

	out := <-runDone
	if out.err != nil {
		t.Fatal(out.err)
	}
	waitSlow() // abandoned mid-range: its error is expected, not asserted
	waitFast()
	if out.stats.StolenCells < 1 {
		t.Errorf("stats.StolenCells = %d, want >= 1", out.stats.StolenCells)
	}
	if out.stats.Resplits < 1 {
		t.Errorf("stats.Resplits = %d, want >= 1 (stolen tail was multi-cell)", out.stats.Resplits)
	}
	raw, err := out.sink.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, directCellFoldBytes(t, b, jobs, cells)) {
		t.Error("post-steal fold is not byte-identical to the direct cell merge")
	}
}

// TestRunDynamicWorkerDeathRequeues: a worker that dies with a range in
// flight must lose the un-received cells to a survivor — the kill-one
// scenario — whether the grid is a static round-robin shard set or a
// contiguous micro-shard grid, and the requeue must show in the log.
func TestRunDynamicWorkerDeathRequeues(t *testing.T) {
	b := testBackend(t)
	for _, tc := range []struct {
		name  string
		jobs  int
		cells int
		run   func(jobs []workload.Features, base string) Runner
		want  func(jobs []workload.Features, cells int) []byte
	}{
		{
			name: "shards", jobs: 500, cells: 3,
			run:  func(jobs []workload.Features, base string) Runner { return testRunner(t, b, jobs, base) },
			want: func(jobs []workload.Features, cells int) []byte { return directFoldBytes(t, b, jobs, cells) },
		},
		{
			name: "cells", jobs: 250, cells: 6,
			run:  func(jobs []workload.Features, base string) Runner { return testCellRunner(t, b, jobs, base, nil) },
			want: func(jobs []workload.Features, cells int) []byte { return directCellFoldBytes(t, b, jobs, cells) },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			jobs := testJobs(t, tc.jobs)
			base := "dyntest run=death " + tc.name

			var logMu sync.Mutex
			var logLines []string
			ln := listen(t)
			opts := Options{
				Provenance: base,
				Logf: func(format string, args ...any) {
					logMu.Lock()
					logLines = append(logLines, fmt.Sprintf(format, args...))
					logMu.Unlock()
				},
			}
			assigned := make(chan rangeAssign, 1)
			go crashAfterAssign(t, ln.Addr().String(), assigned)

			type outcome struct {
				sink analyze.Sink
				err  error
			}
			runDone := make(chan outcome, 1)
			go func() {
				sink, _, _, err := Run(ctx, ln, tc.cells, nil, opts)
				runDone <- outcome{sink, err}
			}()
			// Wait until the crash worker holds a range, then bring up the
			// healthy worker that must absorb the requeue.
			select {
			case <-assigned:
			case <-ctx.Done():
				t.Fatal("crash worker never received a range")
			}
			wait := startWorkers(ctx, ln.Addr().String(), tc.run(jobs, base), 1)
			out := <-runDone
			if out.err != nil {
				t.Fatal(out.err)
			}
			wait()
			raw, err := out.sink.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(raw, tc.want(jobs, tc.cells)) {
				t.Error("post-death fold is not byte-identical to the direct merge")
			}
			logMu.Lock()
			defer logMu.Unlock()
			requeued := false
			for _, line := range logLines {
				if strings.Contains(line, "requeueing") {
					requeued = true
				}
			}
			if !requeued {
				t.Errorf("worker death did not surface as a requeue; log:\n%s", strings.Join(logLines, "\n"))
			}
		})
	}
}

// TestRunDynamicBudgetExhaustionFailsRun: a cell that keeps failing must
// fail the run with the budget named, in bounded time, and the failure must
// reach the idle worker as an abort, so it exits non-zero too.
func TestRunDynamicBudgetExhaustionFailsRun(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	broken := func(ctx context.Context, a Assignment) (analyze.Sink, string, int, error) {
		return nil, "", 0, fmt.Errorf("always broken")
	}
	ln := listen(t)
	wait := startWorkers(ctx, ln.Addr().String(), broken, 1)
	start := time.Now()
	_, _, _, err := Run(ctx, ln, 1, nil, Options{MaxAttempts: 2})
	if err == nil || !strings.Contains(err.Error(), "budget spent") {
		t.Errorf("exhausted retries returned %v", err)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Errorf("budget exhaustion took %v", elapsed)
	}
	for _, werr := range wait() {
		if werr == nil || !strings.Contains(werr.Error(), "aborted") {
			t.Errorf("worker saw a failed run as clean: %v", werr)
		}
	}
}

// TestRunDynamicPartialRangeFailure: a worker that folds some cells of its
// range then fails one must have the folded prefix kept and only the tail
// retried — verified by the byte-identical end state after a healthy retry.
func TestRunDynamicPartialRangeFailure(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	b := testBackend(t)
	jobs := testJobs(t, 200)
	const cells = 5
	const base = "dyntest run=partial"

	// The lone worker advertises a hint, so it pulls a multi-cell range
	// first; its second cell fails once.
	var calls atomic.Int32
	flaky := func(ctx context.Context, a Assignment) (analyze.Sink, string, int, error) {
		if calls.Add(1) == 2 {
			return nil, "", 0, fmt.Errorf("transient failure at cell %d", a.Index)
		}
		acc, n := cellFold(t, b, jobs, a.Shards, a.Index)
		return acc, analyze.ShardMeta(base, a.Index), n, nil
	}
	ln := listen(t)
	wait := startHintedWorkers(ctx, ln.Addr().String(), flaky, 1, 1000)
	sink, counts, _, err := Run(ctx, ln, cells, nil, Options{Provenance: base, MaxAttempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	wait()
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != len(jobs) {
		t.Errorf("total jobs = %d, want %d", total, len(jobs))
	}
	raw, err := sink.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, directCellFoldBytes(t, b, jobs, cells)) {
		t.Error("post-failure fold is not byte-identical to the direct cell merge")
	}
}

// TestBudgetCountsCellAttempts: the attempt budget counts the times a cell
// was run, not the ranges it rode in. Cells 0 and 1 each fail their first
// run; cell 1 is handed out three times (unstarted behind cell 0, failing,
// then folding) but runs only twice, so MaxAttempts 2 must suffice.
func TestBudgetCountsCellAttempts(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	b := testBackend(t)
	jobs := testJobs(t, 200)
	const cells = 8
	const base = "dyntest run=budget"

	var mu sync.Mutex
	runs := map[int]int{}
	flaky := func(ctx context.Context, a Assignment) (analyze.Sink, string, int, error) {
		mu.Lock()
		runs[a.Index]++
		first := runs[a.Index] == 1
		mu.Unlock()
		if first && a.Index <= 1 {
			return nil, "", 0, fmt.Errorf("first run of cell %d fails", a.Index)
		}
		acc, n := cellFold(t, b, jobs, a.Shards, a.Index)
		return acc, analyze.ShardMeta(base, a.Index), n, nil
	}
	ln := listen(t)
	wait := startHintedWorkers(ctx, ln.Addr().String(), flaky, 1, 1000)
	sink, _, _, err := Run(ctx, ln, cells, nil, Options{Provenance: base, MaxAttempts: 2})
	if err != nil {
		t.Fatal(err)
	}
	wait()
	raw, err := sink.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, directCellFoldBytes(t, b, jobs, cells)) {
		t.Error("post-failure fold is not byte-identical to the direct cell merge")
	}
}

// TestDynamicTargetCapacityWeighting: a worker advertising 3x the
// throughput must be offered a ~3x span, both halved against the backlog;
// once any worker is without a hint, every pull takes one cell.
func TestDynamicTargetCapacityWeighting(t *testing.T) {
	st := newState(context.Background(), 100, nil, Options{})
	fastC, fastP := net.Pipe()
	slowC, slowP := net.Pipe()
	defer fastC.Close()
	defer fastP.Close()
	defer slowC.Close()
	defer slowP.Close()

	st.beginHandler(fastC)
	st.beginHandler(slowC)
	st.admit(fastC, 3000)
	st.admit(slowC, 1000)
	// Shares 0.75 and 0.25 over 100 pending cells, halved: 38 and 13.
	if got := st.target(fastC); got != 38 {
		t.Errorf("fast target = %d, want 38", got)
	}
	if got := st.target(slowC); got != 13 {
		t.Errorf("slow target = %d, want 13", got)
	}

	// A hint-less worker joining leaves nothing to weigh: every pull takes
	// a single cell, as the shards of a static grid do.
	plainC, plainP := net.Pipe()
	defer plainC.Close()
	defer plainP.Close()
	st.beginHandler(plainC)
	st.admit(plainC, 0)
	if got := st.target(fastC); got != 1 {
		t.Errorf("fast target with hint-less peer = %d, want 1 (one cell per pull)", got)
	}
}

// TestHelloHintRoundTrip: the hint rides the handshake without moving the
// protocol version, and hint-less hellos still decode.
func TestHelloHintRoundTrip(t *testing.T) {
	hint, err := decodeHello(encodeHelloHint(1234.5))
	if err != nil || hint != 1234.5 {
		t.Errorf("decodeHello(hinted) = %v, %v", hint, err)
	}
	hint, err = decodeHello(encodeHello())
	if err != nil || hint != 0 {
		t.Errorf("decodeHello(plain) = %v, %v", hint, err)
	}
	if len(encodeHelloHint(5e6)) > maxHelloFrame {
		t.Error("hinted hello exceeds the handshake frame cap")
	}
}

// TestRangeAssignmentRoundTrip pins the wire encoding and its validation.
func TestRangeAssignmentRoundTrip(t *testing.T) {
	a := rangeAssign{Cells: 13, Lo: 3, Hi: 9, Attempt: 2, Provenance: "run base", Payload: []byte{1, 2, 3}}
	got, err := decodeRange(encodeRange(a))
	if err != nil {
		t.Fatal(err)
	}
	if got.Cells != a.Cells || got.Lo != a.Lo || got.Hi != a.Hi || got.Attempt != a.Attempt ||
		got.Provenance != a.Provenance || !bytes.Equal(got.Payload, a.Payload) {
		t.Errorf("round trip changed the assignment: %+v != %+v", got, a)
	}
	for _, bad := range []rangeAssign{
		{Cells: 0, Lo: 0, Hi: 1},
		{Cells: 5, Lo: 3, Hi: 3},
		{Cells: 5, Lo: -1, Hi: 2},
		{Cells: 5, Lo: 0, Hi: 6},
	} {
		if _, err := decodeRange(encodeRange(bad)); err == nil {
			t.Errorf("invalid range %+v decoded cleanly", bad)
		}
	}
}

// TestWireScalarsRoundTrip: grid sizes, cell indexes, attempts and job
// counts are scalars, not lengths, so they must round-trip however few
// bytes follow them in the frame — a fine grid with a short payload, a
// result whose job count exceeds its snapshot size, a failure deep into a
// large grid.
func TestWireScalarsRoundTrip(t *testing.T) {
	payload := bytes.Repeat([]byte("p"), 106)
	for _, a := range []rangeAssign{
		{Cells: 1000, Lo: 0, Hi: 1000, Attempt: 1, Payload: payload},
		{Cells: 157, Lo: 120, Hi: 157, Attempt: 6, Provenance: "run", Payload: []byte("x")},
		{Cells: maxGrid, Lo: maxGrid - 1, Hi: maxGrid, Attempt: 1},
	} {
		got, err := decodeRange(encodeRange(a))
		if err != nil {
			t.Errorf("range %d/[%d, %d): %v", a.Cells, a.Lo, a.Hi, err)
			continue
		}
		if got.Cells != a.Cells || got.Lo != a.Lo || got.Hi != a.Hi || got.Attempt != a.Attempt ||
			got.Provenance != a.Provenance || !bytes.Equal(got.Payload, a.Payload) {
			t.Errorf("range round trip: %+v != %+v", got, a)
		}
	}
	for _, r := range []struct{ cell, attempt, jobs, snap int }{
		{0, 1, 20000, 3 << 10},
		{999, 3, 1 << 30, 16},
		{5000, 2, 0, 0},
	} {
		snap := bytes.Repeat([]byte{0xa5}, r.snap)
		cell, attempt, jobs, got, err := decodeResult(encodeResult(r.cell, r.attempt, r.jobs, snap))
		if err != nil || cell != r.cell || attempt != r.attempt || jobs != r.jobs || !bytes.Equal(got, snap) {
			t.Errorf("result %+v round trip: cell %d attempt %d jobs %d, %d-byte snapshot, err %v", r, cell, attempt, jobs, len(got), err)
		}
	}
	for _, f := range []struct{ cell, attempt int }{{5000, 2}, {0, 1 << 20}} {
		cell, attempt, msg, err := decodeFail(encodeFail(f.cell, f.attempt, "boom"))
		if err != nil || cell != f.cell || attempt != f.attempt || msg != "boom" {
			t.Errorf("fail %+v round trip: cell %d attempt %d msg %q, err %v", f, cell, attempt, msg, err)
		}
	}
	// A value past the grid bound, or a negative int on the wire, fails.
	if _, err := decodeRange(encodeRange(rangeAssign{Cells: maxGrid + 1, Lo: 0, Hi: 1})); err == nil {
		t.Error("range beyond the grid bound decoded cleanly")
	}
	if _, _, _, _, err := decodeResult(encodeResult(0, 1, -1, nil)); err == nil {
		t.Error("negative job count decoded cleanly")
	}
}
