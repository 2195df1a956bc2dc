package coord

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"repro/internal/analyze"
)

// DefaultMaxAttempts is the per-cell assignment budget when Options leaves
// MaxAttempts zero: the first attempt plus two retries.
const DefaultMaxAttempts = 3

// handshakeTimeout bounds the hello exchange, so a stray connection (port
// scanner, misdirected client) cannot pin a handler goroutine.
const handshakeTimeout = 30 * time.Second

// failureBackoff is how long a handler sits out after its worker reports a
// failure: the requeued cells go to any other parked worker first (a parked
// channel receiver gets them directly), so one deterministically broken
// worker cannot burn a cell's whole attempt budget in milliseconds while a
// healthy worker is still dialing in. If the worker is alone it re-takes
// the cells after the pause, and the budget still bounds total failures.
const failureBackoff = 100 * time.Millisecond

// ErrDuplicateShard reports a snapshot offered for a cell that has already
// been folded — the at-most-once guard. The coordinator drops duplicates
// (a retried cell is byte-identical by determinism); callers folding
// snapshots by hand can test for it with errors.Is.
var ErrDuplicateShard = errors.New("coord: duplicate snapshot for an already-folded shard")

// Options tunes a coordinator run. The zero value is usable: no deadline,
// DefaultMaxAttempts attempts per cell, provenance bases required to agree
// across cells but not pinned to an expected value.
type Options struct {
	// ShardTimeout is the per-cell progress deadline: a worker that
	// delivers neither a cell result nor a failure within it is abandoned,
	// and the unfinished tail of its range is re-split and requeued for
	// other workers to steal. It also arms the stall detector: once any
	// worker has connected, a run with cells pending, none in flight, and
	// no progress for a whole ShardTimeout fails instead of waiting forever
	// on workers that are all gone. Zero disables both — a hung or vanished
	// worker then hangs the run, so set it whenever workers can die.
	ShardTimeout time.Duration
	// MaxAttempts bounds assignments per cell (first attempt included).
	// When a cell exhausts it, the run fails. Zero means
	// DefaultMaxAttempts.
	MaxAttempts int
	// ExpectWorkers arms the stall detector from the start instead of
	// waiting for the first connection. Set it when the caller is spawning
	// the workers itself (spawn-local mode), where failing to connect at
	// all is itself a stall; leave it false for connect-out runs that may
	// legitimately idle until an operator starts workers elsewhere.
	ExpectWorkers bool
	// Provenance, when non-empty, is the run-identifying base every cell
	// snapshot's provenance must carry (analyze.MetaBase); mismatches are
	// treated as worker failures and retried elsewhere. When empty, the
	// first accepted snapshot's base becomes the requirement.
	Provenance string
	// NewSink, when set, builds the empty aggregate the cell sinks merge
	// into — the exact fold shape of analyze.FoldSinks. When nil, cell 0's
	// sink is the fold base (the shape of `paibench -merge`). Both shapes
	// produce identical bytes; NewSink also pins the expected sink type.
	NewSink func() (analyze.Sink, error)
	// Logf receives steal/requeue diagnostics. Nil discards them.
	Logf func(format string, args ...any)
}

// Stats reports what the scheduler did during one Run.
type Stats struct {
	// Workers is the number of connections that completed the handshake.
	Workers int
	// Assignments is the number of range assignments sent.
	Assignments int
	// StolenCells counts cells reassigned away from a straggler: they were
	// in flight on a connection when its per-cell deadline expired, and
	// another worker folded them instead.
	StolenCells int
	// Resplits counts the range splits performed when requeueing lost
	// tails, so multiple workers can absorb one straggler's backlog.
	Resplits int
}

// span is one contiguous queue entry of un-folded cells [lo, hi).
type span struct{ lo, hi int }

// Run coordinates one evaluation over a `cells`-wide grid: workers that
// connect to ln pull one cell at a time, or, when every worker advertised
// a throughput hint, contiguous cell ranges sized by it (halved against the
// pending backlog so late joiners and stragglers leave work to steal).
// They stream one snapshot per cell back, and cells that stall past
// opts.ShardTimeout are re-split and requeued for other workers. The per-cell snapshots fold in cell order with the exact
// analyze merge, so the result is byte-identical to a single-process run
// over the same grid no matter how the cells were distributed, stolen, or
// retried. It returns the merged sink, per-cell job counts, and scheduler
// statistics when every cell has been folded, when a cell exhausts its
// attempt budget, or when ctx is cancelled; the listener is closed on
// return.
func Run(ctx context.Context, ln net.Listener, cells int, payload []byte, opts Options) (analyze.Sink, []int, Stats, error) {
	if ln == nil {
		return nil, nil, Stats{}, fmt.Errorf("coord: Run with nil listener")
	}
	if cells < 1 {
		// The contract is "listener closed on return" even for early
		// errors: a caller that already pointed workers at ln must not be
		// left with them blocked on a live socket.
		ln.Close()
		return nil, nil, Stats{}, fmt.Errorf("coord: Run with %d cells", cells)
	}
	st := newState(ctx, cells, payload, opts)

	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				// The listener is closed when the run finishes; any earlier
				// accept error is fatal (nobody else can join).
				select {
				case <-st.done:
				default:
					st.finish(fmt.Errorf("coord: accept: %w", err))
				}
				return
			}
			if !st.beginHandler(conn) {
				conn.Close()
				continue
			}
			go st.serve(conn)
		}
	}()

	if opts.ShardTimeout > 0 {
		go func() {
			period := max(opts.ShardTimeout/4, 10*time.Millisecond)
			t := time.NewTicker(period)
			defer t.Stop()
			for {
				select {
				case <-st.done:
					return
				case <-t.C:
					st.checkStalled(opts.ShardTimeout)
				}
			}
		}()
	}

	select {
	case <-st.done:
	case <-ctx.Done():
		st.finish(ctx.Err())
	}
	ln.Close()
	st.closeConns()
	st.handlers.Wait()

	st.mu.Lock()
	failure := st.failure
	stats := st.stats
	st.mu.Unlock()
	if failure != nil {
		return nil, nil, stats, failure
	}
	sink, counts, err := st.fold()
	return sink, counts, stats, err
}

// state is the shared coordination state of one Run.
type state struct {
	ctx     context.Context
	cells   int
	payload []byte
	opts    Options

	// work holds pending disjoint cell spans. Spans are non-empty and
	// disjoint, so there can never be more than `cells` of them: sends
	// never block. done closes when every cell is folded or the run fails.
	work chan span
	done chan struct{}

	handlers sync.WaitGroup

	mu        sync.Mutex
	conns     map[net.Conn]connState
	hints     map[net.Conn]float64
	attempts  []int
	sinks     []analyze.Sink
	counts    []int
	remaining int
	base      string
	baseSet   bool
	finished  bool
	failure   error
	stats     Stats
	// Stall detection: a requeued span sitting in the work queue has no
	// deadline of its own, so if every worker is gone the run would wait
	// forever. everConnected arms the detector (a coordinator may
	// legitimately idle before the first worker dials in); lastProgress
	// advances on every connect, assignment, requeue and fold.
	everConnected bool
	lastProgress  time.Time
}

func newState(ctx context.Context, cells int, payload []byte, opts Options) *state {
	if opts.MaxAttempts < 1 {
		opts.MaxAttempts = DefaultMaxAttempts
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	st := &state{
		ctx:       ctx,
		cells:     cells,
		payload:   payload,
		opts:      opts,
		work:      make(chan span, cells),
		done:      make(chan struct{}),
		conns:     map[net.Conn]connState{},
		hints:     map[net.Conn]float64{},
		attempts:  make([]int, cells),
		sinks:     make([]analyze.Sink, cells),
		counts:    make([]int, cells),
		remaining: cells,
		base:      opts.Provenance,
		baseSet:   opts.Provenance != "",

		everConnected: opts.ExpectWorkers,
		lastProgress:  time.Now(),
	}
	st.work <- span{0, cells}
	return st
}

// finish records the run outcome once and releases every waiter.
func (st *state) finish(err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.finishLocked(err)
}

func (st *state) finishLocked(err error) {
	if st.finished {
		return
	}
	st.finished = true
	st.failure = err
	close(st.done)
}

// connState tracks what a handler is doing with its connection, so teardown
// can force-close only connections that are blocked in a read (handshake or
// awaiting cell results). Idle handlers are left alone to deliver the final
// done or abort message without racing a concurrent Close.
type connState int8

const (
	connHandshake connState = iota
	connIdle
	connBusy
)

// beginHandler registers a new connection and charges the handler
// WaitGroup — or reports false when the run has already finished, so Add
// can never race the teardown Wait (both are serialized by the mutex, and
// Wait runs only after finish).
func (st *state) beginHandler(conn net.Conn) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.finished {
		return false
	}
	st.conns[conn] = connHandshake
	st.handlers.Add(1)
	st.everConnected = true
	st.lastProgress = time.Now()
	return true
}

func (st *state) untrack(conn net.Conn) {
	st.mu.Lock()
	delete(st.conns, conn)
	delete(st.hints, conn)
	st.mu.Unlock()
	conn.Close()
}

// setConn moves a tracked connection to a new state. Moving to busy fails
// once the run has finished: the handler must then bail out instead of
// reading from a connection teardown may force-close. A handler goes idle
// right after a handshake, a received frame or a requeue — progress — so
// the stall clock restarts in the same step, and the stall detector never
// sees an idle worker against a stale clock.
func (st *state) setConn(conn net.Conn, s connState) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if s == connBusy && st.finished {
		return false
	}
	if _, ok := st.conns[conn]; ok {
		st.conns[conn] = s
	}
	if s == connIdle {
		st.lastProgress = time.Now()
	}
	return true
}

// closeConns unblocks handlers stuck reading dead or slow workers at
// teardown. Idle connections are spared so their handlers can say goodbye.
func (st *state) closeConns() {
	st.mu.Lock()
	defer st.mu.Unlock()
	for conn, state := range st.conns {
		if state != connIdle {
			conn.Close()
		}
	}
}

// goodbye tells an idle worker how the run ended — best effort, since a
// vanished worker can't read it anyway. A failed run is relayed as an abort
// so `paibench -worker` processes exit non-zero instead of reporting a
// clean completion.
func (st *state) goodbye(conn net.Conn) {
	st.mu.Lock()
	failure := st.failure
	st.mu.Unlock()
	if failure != nil {
		writeFrame(conn, msgAbort, encodeAbort(failure.Error()))
	} else {
		writeFrame(conn, msgDone, nil)
	}
}

// admit records a completed handshake and the worker's throughput hint.
func (st *state) admit(conn net.Conn, hint float64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.hints[conn] = hint
	st.stats.Workers++
	st.lastProgress = time.Now()
}

// target computes how many cells conn's next assignment should carry. When
// every live worker advertised a throughput hint, it is the worker's
// capacity share of the pending backlog, halved (at least one cell):
// halving keeps half the backlog behind for other and future workers to
// pull or steal, and a worker twice as fast gets ranges twice as long, so
// the straggler's tail shrinks instead of growing. Without a hint from
// every worker there is nothing to weigh, so each pull takes a single cell
// — one shard per worker at a time, as N workers over an N-shard grid
// expect, however staggered their connections.
func (st *state) target(conn net.Conn) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	sum := 0.0
	for _, h := range st.hints {
		if h <= 0 {
			return 1
		}
		sum += h
	}
	if sum == 0 {
		return 1
	}
	return max(int(math.Ceil(float64(st.remaining)*st.hints[conn]/sum/2)), 1)
}

// beginSpan charges one attempt for every cell of [lo, hi) and returns the
// highest per-cell attempt number — or an error when some cell's budget is
// already spent, which fails the run.
func (st *state) beginSpan(lo, hi int) (int, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	maxAttempt := 0
	for i := lo; i < hi; i++ {
		if st.attempts[i] >= st.opts.MaxAttempts {
			err := fmt.Errorf("coord: shard %d failed %d attempt(s), budget spent", i, st.attempts[i])
			st.finishLocked(err)
			return 0, err
		}
		st.attempts[i]++
		maxAttempt = max(maxAttempt, st.attempts[i])
	}
	st.stats.Assignments++
	st.lastProgress = time.Now()
	return maxAttempt, nil
}

// lose requeues the unfinished tail [lo, hi) of a range lost to a dead,
// stalled or misbehaving worker. The worker runs a range's cells in order,
// so only cell lo was attempted: the attempts beginSpan charged to the rest
// are refunded, and the budget counts cell attempts, not assignments.
func (st *state) lose(lo, hi int, stolen, split bool) {
	st.mu.Lock()
	for i := lo + 1; i < hi; i++ {
		st.attempts[i]--
	}
	st.mu.Unlock()
	st.requeue(lo, hi, stolen, split)
}

// requeue returns the un-folded cells of [lo, hi) to the work queue. stolen
// marks the cells as stolen from a straggler (deadline expiry, as opposed
// to a reported failure or a vanished worker), and split re-splits the span
// in half so two workers can absorb the backlog.
func (st *state) requeue(lo, hi int, stolen, split bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	// Trim cells already folded (a duplicate delivery race can fold a
	// prefix); only un-folded cells go back.
	for lo < hi && st.sinks[lo] != nil {
		lo++
	}
	if lo >= hi || st.finished {
		return
	}
	if stolen {
		st.stats.StolenCells += hi - lo
	}
	// A requeue is scheduler progress: the stall clock restarts, so the
	// detector only fires after the span then sits unassigned for a whole
	// ShardTimeout.
	st.lastProgress = time.Now()
	if split && hi-lo > 1 {
		mid := lo + (hi-lo)/2
		st.stats.Resplits++
		st.work <- span{lo, mid}
		st.work <- span{mid, hi}
		return
	}
	st.work <- span{lo, hi}
}

// offer validates one returned cell snapshot — decodable, checksum-clean,
// carrying the right cell index and an agreeing run base — and records it
// for the fold. A cell is folded at most once: a second snapshot for the
// same cell returns ErrDuplicateShard.
func (st *state) offer(cell int, snapshot []byte, jobs int) error {
	sink, meta, err := analyze.ReadSnapshotMeta(bytes.NewReader(snapshot))
	if err != nil {
		return err
	}
	mi, ok := analyze.MetaShardIndex(meta)
	if !ok || mi != cell {
		return fmt.Errorf("coord: snapshot provenance %q does not name shard %d", meta, cell)
	}
	base := analyze.MetaBase(meta)
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.baseSet && base != st.base {
		return fmt.Errorf("coord: shard %d from a different run (provenance %q, want base %q)", cell, base, st.base)
	}
	if st.sinks[cell] != nil {
		return fmt.Errorf("%w: shard %d (provenance %q)", ErrDuplicateShard, cell, meta)
	}
	if !st.baseSet {
		st.base, st.baseSet = base, true
	}
	st.sinks[cell] = sink
	st.counts[cell] = jobs
	st.remaining--
	st.lastProgress = time.Now()
	if st.remaining == 0 {
		st.finishLocked(nil)
	}
	return nil
}

// checkStalled fails the run when cells are pending, no worker is busy,
// and nothing has progressed for a whole timeout — the state a run reaches
// when every worker died and their cells sit requeued with nobody to take
// them.
func (st *state) checkStalled(timeout time.Duration) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.finished || st.remaining == 0 || !st.everConnected {
		return
	}
	for _, state := range st.conns {
		if state == connBusy {
			return // an in-flight range; its own read deadline governs it
		}
	}
	if idle := time.Since(st.lastProgress); idle > timeout {
		st.finishLocked(fmt.Errorf("coord: %d shard(s) pending with no active workers for %v (all workers lost?)", st.remaining, idle.Round(time.Millisecond)))
	}
}

// serve drives one worker connection: handshake, then assign
// capacity-sized spans and collect per-cell results until the run
// completes. A send or receive failure requeues the unfinished tail and
// abandons the connection — a worker killed mid-range surfaces here as a
// read error.
func (st *state) serve(conn net.Conn) {
	defer st.handlers.Done()
	defer st.untrack(conn)

	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	typ, p, err := readFrameCapped(conn, maxHelloFrame)
	if err != nil || typ != msgHello {
		st.opts.Logf("coord: %s: handshake rejected", conn.RemoteAddr())
		return
	}
	hint, herr := decodeHello(p)
	if herr != nil {
		st.opts.Logf("coord: %s: handshake rejected (%v)", conn.RemoteAddr(), herr)
		return
	}
	if err := writeFrame(conn, msgHello, encodeHello()); err != nil {
		return
	}
	conn.SetDeadline(time.Time{})
	st.admit(conn, hint)

	for {
		st.setConn(conn, connIdle)
		var s span
		select {
		case s = <-st.work:
		case <-st.done:
			st.goodbye(conn)
			return
		case <-st.ctx.Done():
			return
		}
		// Trim the span to the worker's capacity-weighted target, leaving
		// the rest queued for others.
		if t := st.target(conn); s.hi-s.lo > t {
			st.requeue(s.lo+t, s.hi, false, false)
			s.hi = s.lo + t
		}
		// Charge the attempts while still idle: a spent budget finishes
		// the run, and teardown spares idle connections, so the abort
		// reaches this worker. Either failure below means the run is over.
		attempt, err := st.beginSpan(s.lo, s.hi)
		if err != nil || !st.setConn(conn, connBusy) {
			st.goodbye(conn)
			return
		}
		a := rangeAssign{
			Cells:      st.cells,
			Lo:         s.lo,
			Hi:         s.hi,
			Attempt:    attempt,
			Provenance: st.opts.Provenance,
			Payload:    st.payload,
		}
		if err := writeFrame(conn, msgRange, encodeRange(a)); err != nil {
			st.opts.Logf("coord: cells [%d, %d): send to %s failed (%v); requeueing", s.lo, s.hi, conn.RemoteAddr(), err)
			st.lose(s.lo, s.hi, false, false)
			return
		}
		if !st.collect(conn, s) {
			return
		}
	}
}

// collect reads one frame per cell of s, resetting the progress deadline
// after each — a straggler is detected per cell, not per range. It reports
// whether the connection is still usable for another assignment.
func (st *state) collect(conn net.Conn, s span) bool {
	defer conn.SetReadDeadline(time.Time{})
	for next := s.lo; next < s.hi; {
		// Busy only while blocked in the read: once a frame is in hand,
		// teardown must not close the connection under the done or abort
		// message this handler may be about to send — folding this very
		// cell can finish the run.
		if !st.setConn(conn, connBusy) {
			st.goodbye(conn)
			return false
		}
		if st.opts.ShardTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(st.opts.ShardTimeout))
		}
		typ, p, err := readFrame(conn)
		if err != nil {
			var nerr net.Error
			stolen := errors.As(err, &nerr) && nerr.Timeout()
			if stolen {
				st.opts.Logf("coord: cells [%d, %d) stalled on %s (%v); re-splitting for other workers", next, s.hi, conn.RemoteAddr(), err)
			} else {
				st.opts.Logf("coord: worker %s lost with cells [%d, %d) in flight (%v); requeueing", conn.RemoteAddr(), next, s.hi, err)
			}
			st.lose(next, s.hi, stolen, true)
			return false
		}
		st.setConn(conn, connIdle)
		switch typ {
		case msgResult:
			cell, _, jobs, snapshot, derr := decodeResult(p)
			if derr != nil || cell != next {
				st.opts.Logf("coord: bad result from %s (%v, cell %d, expected %d); requeueing tail", conn.RemoteAddr(), derr, cell, next)
				st.lose(next, s.hi, false, true)
				return false
			}
			if err := st.offer(cell, snapshot, jobs); err != nil {
				st.opts.Logf("coord: cell %d snapshot from %s rejected (%v); requeueing tail", cell, conn.RemoteAddr(), err)
				st.lose(next, s.hi, false, true)
				return false
			}
			next++
		case msgFail:
			cell, _, msg, derr := decodeFail(p)
			if derr != nil || cell != next {
				if derr == nil {
					derr = fmt.Errorf("failure names cell %d, expected %d", cell, next)
				}
				st.opts.Logf("coord: bad failure report from %s (%v); requeueing tail", conn.RemoteAddr(), derr)
				st.lose(next, s.hi, false, true)
				return false
			}
			// The worker is alive and spoke the protocol: requeue the failed
			// cell onward and keep serving it — after a pause, so another
			// parked worker takes the requeued span first.
			st.opts.Logf("coord: worker %s reports at cell %d: %s; requeueing [%d, %d)", conn.RemoteAddr(), cell, msg, cell, s.hi)
			st.lose(cell, s.hi, false, false)
			select {
			case <-st.done:
			case <-time.After(failureBackoff):
			}
			return true
		default:
			st.opts.Logf("coord: unexpected %q frame from %s; requeueing tail", typ, conn.RemoteAddr())
			st.lose(next, s.hi, false, true)
			return false
		}
	}
	return true
}

// fold merges the per-cell sinks in cell order — the same pinned order
// `paibench -merge` and analyze.FoldSinks use, which is what makes a
// retried, redistributed run byte-identical to the single-process one.
func (st *state) fold() (analyze.Sink, []int, error) {
	var total analyze.Sink
	start := 0
	if st.opts.NewSink != nil {
		s, err := st.opts.NewSink()
		if err != nil {
			return nil, nil, fmt.Errorf("coord: %w", err)
		}
		total = s
	} else {
		total = st.sinks[0]
		start = 1
	}
	for i := start; i < st.cells; i++ {
		if err := total.Merge(st.sinks[i]); err != nil {
			return nil, nil, fmt.Errorf("coord: fold cell %d: %w", i, err)
		}
	}
	return total, st.counts, nil
}
