package main

import (
	"sync/atomic"
	"time"

	pai "repro"
	"repro/internal/analyze"
	"repro/internal/backend"
	"repro/internal/replay"
	"repro/internal/stream"
)

// span sums the time and the number of calls spent inside one layer
// boundary. Evaluator and decode spans are charged from worker goroutines,
// hence the atomics.
type span struct {
	ns, calls atomic.Int64
}

func (s *span) end(start time.Time) {
	s.ns.Add(int64(time.Since(start)))
	s.calls.Add(1)
}

// ledger charges one traced pass to the layers it crosses. Each field is
// the span of one seam the Engine composes; self times are derived when the
// ledger is read, by subtracting the spans nested inside a layer's own.
type ledger struct {
	// source times JobSource reads, block reads, payload handoffs and the
	// payload-decode closures the pipeline runs on its workers.
	source span
	// evaluator is the evaluator the pipeline calls: the cache, with the
	// backend beneath it.
	evaluator span
	// projection is the evaluator the projection sink calls while it folds;
	// it is the same cache, charged apart so the fold's self time can
	// exclude it.
	projection span
	// backend is the backend under the cache: time spent on cache misses.
	backend span
	// run is the wall time of replay.Run.
	run span
	// members holds one span per sink the pass folds into, in order.
	members []*memberSpan
	// delivery tracks the gaps between consecutive sink deliveries.
	delivery deliveryClock
}

// deliveryClock measures how long the fold waits between deliveries. A
// delivery starts when the first sink is entered and ends when the last
// one returns; every call runs on the pipeline's single collector
// goroutine, so the clock needs no locking.
type deliveryClock struct {
	last time.Time
	wait time.Duration
}

// memberSpan records the kind and the span of one traced sink.
type memberSpan struct {
	kind string
	span span
}

// traceSource wraps src so every read and payload decode is charged to sp.
// The wrapper implements exactly the capability interfaces src implements,
// so the pipeline takes the same record, block or pipelined-payload path it
// would take over src itself.
func traceSource(src stream.Source, sp *span) stream.Source {
	next := &timedNext{src: src, sp: sp}
	bs, isBlock := src.(stream.BlockSource)
	ps, isPayload := src.(stream.PayloadSource)
	block := &timedBlock{src: bs, sp: sp}
	payload := &timedPayload{src: ps, sp: sp}
	switch {
	case isBlock && isPayload:
		return struct {
			*timedNext
			*timedBlock
			*timedPayload
		}{next, block, payload}
	case isBlock:
		return struct {
			*timedNext
			*timedBlock
		}{next, block}
	case isPayload:
		return struct {
			*timedNext
			*timedPayload
		}{next, payload}
	}
	return next
}

type timedNext struct {
	src stream.Source
	sp  *span
}

func (t *timedNext) Next() (pai.Features, error) {
	start := time.Now()
	f, err := t.src.Next()
	t.sp.end(start)
	return f, err
}

type timedBlock struct {
	src stream.BlockSource
	sp  *span
}

func (t *timedBlock) NextBlock(c *pai.Columns) error {
	start := time.Now()
	err := t.src.NextBlock(c)
	t.sp.end(start)
	return err
}

type timedPayload struct {
	src stream.PayloadSource
	sp  *span
}

func (t *timedPayload) NextPayload() (func(*pai.Columns) error, int, error) {
	start := time.Now()
	dec, n, err := t.src.NextPayload()
	t.sp.end(start)
	if dec == nil {
		return dec, n, err
	}
	return func(c *pai.Columns) error {
		start := time.Now()
		err := dec(c)
		t.sp.end(start)
		return err
	}, n, err
}

// traceEvaluator wraps ev so every Breakdown and BreakdownColumns call is
// charged to sp, keeping ev's ColumnEvaluator and Backend capabilities. A
// wrapped Backend's Reconfigure returns a backend charged to the same span.
func traceEvaluator(ev backend.Evaluator, sp *span) backend.Evaluator {
	rec := &timedBreakdown{ev: ev, sp: sp}
	ce, isColumns := ev.(backend.ColumnEvaluator)
	b, isBackend := ev.(backend.Backend)
	cols := &timedColumns{ev: ce, sp: sp}
	info := &backendInfo{b: b, sp: sp}
	switch {
	case isBackend && isColumns:
		return struct {
			*timedBreakdown
			*timedColumns
			*backendInfo
		}{rec, cols, info}
	case isBackend:
		return struct {
			*timedBreakdown
			*backendInfo
		}{rec, info}
	case isColumns:
		return struct {
			*timedBreakdown
			*timedColumns
		}{rec, cols}
	}
	return rec
}

type timedBreakdown struct {
	ev backend.Evaluator
	sp *span
}

func (t *timedBreakdown) Breakdown(f pai.Features) (pai.Times, error) {
	start := time.Now()
	ts, err := t.ev.Breakdown(f)
	t.sp.end(start)
	return ts, err
}

type timedColumns struct {
	ev backend.ColumnEvaluator
	sp *span
}

func (t *timedColumns) BreakdownColumns(c *pai.Columns, out []pai.Times) error {
	start := time.Now()
	err := t.ev.BreakdownColumns(c, out)
	t.sp.end(start)
	return err
}

// backendInfo forwards the Backend methods other than Breakdown.
type backendInfo struct {
	b  backend.Backend
	sp *span
}

func (i *backendInfo) Name() string                       { return i.b.Name() }
func (i *backendInfo) Spec() backend.Spec                 { return i.b.Spec() }
func (i *backendInfo) Capabilities() backend.Capabilities { return i.b.Capabilities() }

func (i *backendInfo) Reconfigure(spec backend.Spec) (backend.Backend, error) {
	nb, err := i.b.Reconfigure(spec)
	if err != nil {
		return nil, err
	}
	return traceEvaluator(nb, i.sp).(backend.Backend), nil
}

// traceSinks wraps each sink so its folds are charged to a member span of
// l, keeping its ColumnSink and OutcomeSink capabilities. The wrapped sinks
// are meant to be bundled, in the same order, into one MultiSink (or passed
// alone when there is one): the first opens a delivery on l's clock and the
// last closes it.
func (l *ledger) traceSinks(sinks ...analyze.Sink) []analyze.Sink {
	out := make([]analyze.Sink, len(sinks))
	for i, s := range sinks {
		m := &memberSpan{kind: s.Kind()}
		l.members = append(l.members, m)
		base := &timedSink{s: s, m: m, clock: &l.delivery, first: i == 0, last: i == len(sinks)-1}
		cs, isColumns := s.(analyze.ColumnSink)
		oc, isOutcome := s.(replay.OutcomeSink)
		cols := &timedColumnSink{t: base, s: cs}
		outcome := &timedOutcomeSink{t: base, s: oc}
		switch {
		case isColumns && isOutcome:
			out[i] = struct {
				*timedSink
				*timedColumnSink
				*timedOutcomeSink
			}{base, cols, outcome}
		case isColumns:
			out[i] = struct {
				*timedSink
				*timedColumnSink
			}{base, cols}
		case isOutcome:
			out[i] = struct {
				*timedSink
				*timedOutcomeSink
			}{base, outcome}
		default:
			out[i] = base
		}
	}
	return out
}

type timedSink struct {
	s           analyze.Sink
	m           *memberSpan
	clock       *deliveryClock
	first, last bool
}

func (t *timedSink) begin() time.Time {
	now := time.Now()
	if t.first {
		t.clock.wait += now.Sub(t.clock.last)
	}
	return now
}

func (t *timedSink) done(start time.Time) {
	now := time.Now()
	t.m.span.ns.Add(int64(now.Sub(start)))
	t.m.span.calls.Add(1)
	if t.last {
		t.clock.last = now
	}
}

func (t *timedSink) Kind() string { return t.s.Kind() }

func (t *timedSink) Add(f pai.Features, ts pai.Times) error {
	start := t.begin()
	err := t.s.Add(f, ts)
	t.done(start)
	return err
}

func (t *timedSink) Merge(other analyze.Sink) error { return t.s.Merge(other) }

func (t *timedSink) MarshalBinary() ([]byte, error)    { return t.s.MarshalBinary() }
func (t *timedSink) UnmarshalBinary(data []byte) error { return t.s.UnmarshalBinary(data) }

type timedColumnSink struct {
	t *timedSink
	s analyze.ColumnSink
}

func (c *timedColumnSink) AddColumns(cols *pai.Columns, ts []pai.Times) error {
	start := c.t.begin()
	err := c.s.AddColumns(cols, ts)
	c.t.done(start)
	return err
}

type timedOutcomeSink struct {
	t *timedSink
	s replay.OutcomeSink
}

func (o *timedOutcomeSink) AddOutcome(out replay.Outcome) error {
	start := o.t.begin()
	err := o.s.AddOutcome(out)
	o.t.done(start)
	return err
}
