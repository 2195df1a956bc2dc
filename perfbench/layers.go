package main

import (
	"repro/internal/analyze"
	"repro/internal/evalcache"
	"repro/internal/replay"
)

// layerMetric names one per-layer metric and its unit.
type layerMetric struct {
	name, unit string
}

// foldPrefix prefixes the per-sink fold metrics; the suffix is the sink's
// kind.
const foldPrefix = "analyze.fold_ns_per_job."

// overheadMetric is traced jobs/sec over untraced jobs/sec.
const overheadMetric = "bench.trace_overhead_ratio"

// layerMetrics lists every per-layer metric a traced pass reports, on every
// workload; a layer a workload does not run reads zero.
var layerMetrics = []layerMetric{
	{foldPrefix + analyze.NewBreakdownAccumulator().Kind(), "ns"},
	{foldPrefix + analyze.NewComponentCDFSink().Kind(), "ns"},
	{foldPrefix + analyze.NewHardwareCDFSink().Kind(), "ns"},
	{foldPrefix + "projection", "ns"},
	{foldPrefix + replay.KindCounters, "ns"},
	{foldPrefix + replay.KindQueueDelay, "ns"},
	{foldPrefix + replay.KindUtilization, "ns"},
	{"colbin.decode_ns_per_job", "ns"},
	{"tracegen.decode_ns_per_job", "ns"},
	{"evalcache.hit_ratio", "ratio"},
	{"evalcache.block_hit_ratio", "ratio"},
	{"evalcache.evictions", "count"},
	{"evalcache.self_ns_per_job", "ns"},
	{"backend.evaluate_ns_per_job", "ns"},
	{"backend.calls", "count"},
	{"stream.consumer_wait_ns_per_job", "ns"},
	{"replay.self_ns_per_job", "ns"},
	{"replay.max_queue_depth", "count"},
	{"replay.rejected", "count"},
}

// metrics reads the ledger of one traced pass as per-layer metrics. Self
// times subtract the spans nested inside a layer: the backend under the
// cache, the cache under the projection sink, and the source, evaluator and
// sinks under replay.Run.
func (l *ledger) metrics(w workload, out outcome, cs evalcache.Stats) map[string]float64 {
	perJob := func(ns int64) float64 { return float64(ns) / float64(out.jobs) }
	ratio := func(hits, misses uint64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	}
	m := make(map[string]float64, len(layerMetrics))
	for _, lm := range layerMetrics {
		m[lm.name] = 0
	}

	var sinkNs int64
	for _, mem := range l.members {
		ns := mem.span.ns.Load()
		sinkNs += ns
		if mem.kind == "projection" {
			ns -= l.projection.ns.Load()
		}
		m[foldPrefix+mem.kind] = perJob(ns)
	}

	decode := "colbin.decode_ns_per_job"
	if w.format == "ndjson" {
		decode = "tracegen.decode_ns_per_job"
	}
	m[decode] = perJob(l.source.ns.Load())

	m["evalcache.hit_ratio"] = ratio(cs.Hits, cs.Misses)
	m["evalcache.block_hit_ratio"] = ratio(cs.BlockHits, cs.BlockMisses)
	m["evalcache.evictions"] = float64(cs.Evictions)
	m["evalcache.self_ns_per_job"] = perJob(l.evaluator.ns.Load() + l.projection.ns.Load() - l.backend.ns.Load())
	m["backend.evaluate_ns_per_job"] = perJob(l.backend.ns.Load())
	m["backend.calls"] = float64(l.backend.calls.Load())
	m["stream.consumer_wait_ns_per_job"] = perJob(int64(l.delivery.wait))

	if w.kind == replayTrace {
		m["replay.self_ns_per_job"] = perJob(l.run.ns.Load() - l.source.ns.Load() - l.evaluator.ns.Load() - sinkNs)
		m["replay.max_queue_depth"] = float64(out.replay.MaxQueueDepth)
		m["replay.rejected"] = float64(out.replay.Rejected)
	}
	return m
}
