package coord

import (
	"bytes"
	"context"
	"io"
	"testing"
	"testing/iotest"

	"repro/internal/analyze"
)

// fuzzSeedFrames builds a corpus of well-formed protocol traffic: hello,
// a range assignment, a result carrying a real checksummed snapshot, a failure
// report, done, and truncations of each.
func fuzzSeedFrames(f *testing.F) [][]byte {
	f.Helper()
	b := testBackend(f)
	jobs := testJobs(f, 48)
	acc, n := shardAcc(f, b, jobs, 2, 0)
	snap := snapshotBytes(f, acc, analyze.ShardMeta("fuzz run", 0))

	var frames [][]byte
	add := func(typ byte, payload []byte) {
		var buf bytes.Buffer
		if err := writeFrame(&buf, typ, payload); err != nil {
			f.Fatal(err)
		}
		frames = append(frames, buf.Bytes())
	}
	add(msgHello, encodeHello())
	add(msgRange, encodeRange(rangeAssign{Cells: 2, Lo: 0, Hi: 2, Attempt: 1, Provenance: "fuzz run", Payload: []byte("spec")}))
	add(msgResult, encodeResult(0, 1, n, snap))
	add(msgFail, encodeFail(0, 1, "boom"))
	add(msgDone, nil)
	return frames
}

// FuzzReadFrameStream extends FuzzReadSnapshot to the framed TCP reader:
// arbitrary bytes fed as a network stream — including one-byte short reads —
// must either parse as protocol messages (and, for results, decode to a
// valid checksummed sink snapshot) or fail with an error. Never a panic,
// never an unbounded allocation.
func FuzzReadFrameStream(f *testing.F) {
	for _, frame := range fuzzSeedFrames(f) {
		f.Add(frame)
		if len(frame) > frameHeaderLen {
			f.Add(frame[:frameHeaderLen])         // header only
			f.Add(frame[:len(frame)-1])           // truncated payload
			f.Add(append([]byte{0xff}, frame...)) // misaligned stream
		}
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Short reads must behave identically to full reads: io.ReadFull
		// hides the transport's chunking.
		for _, src := range []io.Reader{
			bytes.NewReader(data),
			iotest.OneByteReader(bytes.NewReader(data)),
		} {
			for {
				typ, payload, err := readFrame(src)
				if err != nil {
					break
				}
				switch typ {
				case msgHello:
					decodeHello(payload)
				case msgRange:
					if a, err := decodeRange(payload); err == nil {
						if a.Cells < 1 || a.Lo < 0 || a.Lo >= a.Hi || a.Hi > a.Cells {
							t.Fatalf("decodeRange accepted invalid range [%d, %d) of %d", a.Lo, a.Hi, a.Cells)
						}
					}
				case msgResult:
					if _, _, _, snap, err := decodeResult(payload); err == nil {
						// The snapshot inside a result rides the same framed,
						// checksummed format as snapshot files; whatever
						// decodes must re-encode.
						sink, _, err := analyze.ReadSnapshotMeta(bytes.NewReader(snap))
						if err == nil {
							if _, err := sink.MarshalBinary(); err != nil {
								t.Fatalf("decoded sink cannot re-encode: %v", err)
							}
						}
					}
				case msgFail:
					decodeFail(payload)
				}
			}
		}
	})
}

// FuzzWorkerAssignStream drives the worker-side decode path with arbitrary
// coordinator bytes: the worker must reject garbage with an error, never
// run an invalid range, and hand its Runner a view of every cell that
// matches the decoded range.
func FuzzWorkerAssignStream(f *testing.F) {
	for _, frame := range fuzzSeedFrames(f) {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := readFrame(bytes.NewReader(data))
		if err != nil || typ != msgRange {
			return
		}
		r, err := decodeRange(payload)
		if err != nil {
			return
		}
		run := func(ctx context.Context, got Assignment) (analyze.Sink, string, int, error) {
			if got.Shards != r.Cells || got.Index < r.Lo || got.Index >= r.Hi || got.Attempt != r.Attempt ||
				got.Provenance != r.Provenance || !bytes.Equal(got.Payload, r.Payload) {
				t.Fatalf("cell view %+v does not match range %+v", got, r)
			}
			return analyze.NewBreakdownAccumulator(), analyze.ShardMeta(got.Provenance, got.Index), 0, nil
		}
		// The first and last cells bound the view; a fuzzed range may span
		// billions of cells.
		for _, cell := range []int{r.Lo, r.Hi - 1} {
			sink, meta, _, err := run(context.Background(), r.cell(cell))
			if err != nil {
				t.Fatalf("runner did not run: %v", err)
			}
			var buf bytes.Buffer
			if err := analyze.WriteSnapshotMeta(&buf, sink, meta); err != nil {
				t.Fatalf("valid range produced unencodable snapshot: %v", err)
			}
		}
	})
}
