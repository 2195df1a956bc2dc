package coord

import (
	"bytes"
	"context"
	"fmt"
	"net"

	"repro/internal/analyze"
)

// Assignment is one cell of a range a coordinator handed a worker: evaluate
// cell Index of a Shards-wide grid. Payload is the opaque run description
// the worker's Runner interprets (paibench encodes its full benchmark
// parameterization; library users close over their own). Provenance is the
// run-identifying base string the worker must stamp into its snapshot (see
// analyze.ShardMeta); Attempt is the highest attempt number, 1-based, among
// the cells of the range this cell arrived in.
type Assignment struct {
	Shards     int
	Index      int
	Attempt    int
	Provenance string
	Payload    []byte
}

// Runner evaluates one cell on the worker side: it interprets a.Payload,
// folds cell a.Index into a fresh sink, and returns the sink, its
// provenance (analyze.ShardMeta of the run base and a.Index, so the
// coordinator can verify and deduplicate), and the number of jobs folded.
// The worker loop calls it once per cell of every assigned range, in cell
// order, and streams each result the moment it returns, so the
// coordinator's per-cell deadline observes progress instead of silence.
type Runner func(ctx context.Context, a Assignment) (sink analyze.Sink, meta string, jobs int, err error)

// Work dials a coordinator and serves range assignments with run until the
// coordinator finishes the run. hint is the jobs/sec throughput this worker
// advertises for capacity-weighted range sizing (zero for unknown). A clean
// done returns nil; everything else returns the underlying error, so
// process-level workers can exit non-zero when the run ended without them.
func Work(ctx context.Context, addr string, hint float64, run Runner) error {
	if run == nil {
		return fmt.Errorf("coord: Work with nil runner")
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return fmt.Errorf("coord: dial coordinator: %w", err)
	}
	defer conn.Close()
	// Cancellation unblocks any in-flight read/write by closing the
	// connection out from under it.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	if err := serveConn(ctx, conn, hint, run); err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return err
	}
	return nil
}

// workerHandshake runs the worker side of the hello exchange, advertising
// hint (zero when unknown).
func workerHandshake(conn net.Conn, hint float64) error {
	if err := writeFrame(conn, msgHello, encodeHelloHint(hint)); err != nil {
		return fmt.Errorf("coord: worker hello: %w", err)
	}
	typ, p, err := readFrameCapped(conn, maxHelloFrame)
	if err != nil {
		return fmt.Errorf("coord: worker handshake: %w", err)
	}
	if typ != msgHello {
		return fmt.Errorf("coord: worker handshake got %q frame", typ)
	}
	if _, err := decodeHello(p); err != nil {
		return err
	}
	return nil
}

// serveConn speaks the worker side of the protocol over an established
// connection: handshake (carrying the throughput hint), then one result
// frame per cell of every range assignment until done. A cell whose Runner
// fails is reported with a fail frame, which ends that range; the session
// continues.
func serveConn(ctx context.Context, conn net.Conn, hint float64, run Runner) error {
	if err := workerHandshake(conn, hint); err != nil {
		return err
	}
	for {
		typ, p, err := readFrame(conn)
		if err != nil {
			return fmt.Errorf("coord: worker read: %w", err)
		}
		switch typ {
		case msgDone:
			return nil
		case msgAbort:
			msg, derr := decodeAbort(p)
			if derr != nil {
				return derr
			}
			return fmt.Errorf("coord: run aborted by coordinator: %s", msg)
		case msgRange:
			r, err := decodeRange(p)
			if err != nil {
				return err
			}
			for cell := r.Lo; cell < r.Hi; cell++ {
				sink, meta, jobs, rerr := run(ctx, r.cell(cell))
				var buf bytes.Buffer
				if rerr == nil {
					rerr = analyze.WriteSnapshotMeta(&buf, sink, meta)
				}
				if rerr != nil {
					if err := writeFrame(conn, msgFail, encodeFail(cell, r.Attempt, rerr.Error())); err != nil {
						return fmt.Errorf("coord: worker report failure: %w", err)
					}
					break
				}
				if err := writeFrame(conn, msgResult, encodeResult(cell, r.Attempt, jobs, buf.Bytes())); err != nil {
					return fmt.Errorf("coord: worker send cell %d: %w", cell, err)
				}
			}
		default:
			return fmt.Errorf("coord: worker got unexpected %q frame", typ)
		}
	}
}
