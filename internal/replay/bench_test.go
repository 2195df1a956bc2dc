package replay

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/backend"
	"repro/internal/cluster"
	"repro/internal/hw"
	"repro/internal/sched"
	"repro/internal/stream"
	"repro/internal/tracegen"
)

// BenchmarkReplayContended times Run alone over the replay-contended
// workload's shape: 100k Poisson-stamped jobs at 2M jobs/hour on a
// 128-server pod under FIFO, which holds a queue tens of thousands deep.
// The trace is generated in memory during set-up, so a CPU profile
//
//	go test -run '^$' -bench ReplayContended -cpuprofile cpu.out ./internal/replay
//
// charges the event loop and evaluation without codec or generator work.
func BenchmarkReplayContended(b *testing.B) {
	p := tracegen.Default()
	p.NumJobs, p.Seed, p.ArrivalRate = 100_000, 1, 2_000_000
	trace, err := tracegen.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	ev, err := backend.New(backend.AnalyticalName, backend.DefaultSpec())
	if err != nil {
		b.Fatal(err)
	}
	cl, err := cluster.New(hw.Baseline(), 128)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Cluster: cl, Policy: sched.FIFOName}
	b.ReportAllocs()
	b.ResetTimer()
	var res Result
	for i := 0; i < b.N; i++ {
		if res, err = Run(context.Background(), ev, runtime.GOMAXPROCS(0), stream.NewSliceSource(trace.Jobs), cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(res.MaxQueueDepth), "max-queue-depth")
	b.ReportMetric(float64(len(trace.Jobs))*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}
