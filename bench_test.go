// Benchmarks regenerating the paper's evaluation. One benchmark per table
// and figure (run cmd/aggbench for the full formatted rows), plus ablation
// benches for the design choices DESIGN.md calls out.
//
//	go test -bench=. -benchmem
//
// Throughput experiments report their headline metric via b.ReportMetric
// (Mbps or percent), so `-bench` output doubles as a compact reproduction
// record. Simulated seconds per wall-clock second is the performance figure
// of the simulator itself.
package main

import (
	"testing"
	"time"

	"aggmac/internal/core"
	"aggmac/internal/experiments"
	"aggmac/internal/mac"
	"aggmac/internal/phy"
	"aggmac/internal/tcp"
	"aggmac/internal/traffic"
)

func runWithMACTweak(seed int64, tweak func(*mac.Options)) core.TCPResult {
	return core.RunTCP(core.TCPConfig{Scheme: mac.BA, Rate: phy.Rate2600k, Hops: 2,
		Seed: seed, Tweak: tweak})
}

func runStarWithMACTweak(seed int64, tweak func(*mac.Options)) core.TCPResult {
	return core.RunTCP(core.TCPConfig{Scheme: mac.UA, Rate: phy.Rate2600k, Star: true,
		Seed: seed, Tweak: tweak})
}

func defaultTCP() tcp.Config { return tcp.DefaultConfig() }

var quick = experiments.Options{Seed: 1, Quick: true}

// benchTable runs a whole experiment regeneration per iteration and reports
// the first row's first value so regressions are visible in bench output.
func benchTable(b *testing.B, run func(experiments.Options) experiments.Table, metric string) {
	b.Helper()
	b.ReportAllocs()
	var tab experiments.Table
	for i := 0; i < b.N; i++ {
		tab = run(quick)
	}
	if len(tab.Rows) > 0 && len(tab.Rows[0].Values) > 0 {
		last := tab.Rows[len(tab.Rows)-1]
		b.ReportMetric(last.Values[len(last.Values)-1], metric)
	}
}

func BenchmarkFigure7(b *testing.B)  { benchTable(b, experiments.Figure7, "Mbps") }
func BenchmarkTable2(b *testing.B)   { benchTable(b, experiments.Table2, "pct") }
func BenchmarkFigure8(b *testing.B)  { benchTable(b, experiments.Figure8, "Mbps") }
func BenchmarkFigure9(b *testing.B)  { benchTable(b, experiments.Figure9, "Mbps") }
func BenchmarkFigure10(b *testing.B) { benchTable(b, experiments.Figure10, "Mbps") }
func BenchmarkFigure11(b *testing.B) { benchTable(b, experiments.Figure11, "Mbps") }
func BenchmarkFigure12(b *testing.B) { benchTable(b, experiments.Figure12, "Mbps") }
func BenchmarkFigure13(b *testing.B) { benchTable(b, experiments.Figure13, "Mbps") }
func BenchmarkFigure14(b *testing.B) { benchTable(b, experiments.Figure14, "Mbps") }
func BenchmarkTable3(b *testing.B)   { benchTable(b, experiments.Table3, "pct") }
func BenchmarkTable4(b *testing.B)   { benchTable(b, experiments.Table4, "pct") }
func BenchmarkTable5to7(b *testing.B) {
	benchTable(b, experiments.Tables5to7, "pct")
}
func BenchmarkTable8(b *testing.B) { benchTable(b, experiments.Table8, "bytes") }

// benchTCP runs one TCP experiment per iteration, reporting throughput and
// the simulation speed (simulated seconds per wall second).
func benchTCP(b *testing.B, cfg core.TCPConfig) {
	b.Helper()
	b.ReportAllocs()
	var res core.TCPResult
	start := time.Now()
	var simulated time.Duration
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res = core.RunTCP(cfg)
		simulated += res.Elapsed
	}
	b.ReportMetric(res.ThroughputMbps, "Mbps")
	if wall := time.Since(start).Seconds(); wall > 0 {
		b.ReportMetric(simulated.Seconds()/wall, "simsec/sec")
	}
}

// Headline single-configuration benches.
func BenchmarkTCP2HopNA(b *testing.B) {
	benchTCP(b, core.TCPConfig{Scheme: mac.NA, Rate: phy.Rate2600k, Hops: 2})
}
func BenchmarkTCP2HopUA(b *testing.B) {
	benchTCP(b, core.TCPConfig{Scheme: mac.UA, Rate: phy.Rate2600k, Hops: 2})
}
func BenchmarkTCP2HopBA(b *testing.B) {
	benchTCP(b, core.TCPConfig{Scheme: mac.BA, Rate: phy.Rate2600k, Hops: 2})
}
func BenchmarkTCP2HopDBA(b *testing.B) {
	benchTCP(b, core.TCPConfig{Scheme: mac.DBA, Rate: phy.Rate2600k, Hops: 2})
}
func BenchmarkTCPStarBA(b *testing.B) {
	benchTCP(b, core.TCPConfig{Scheme: mac.BA, Rate: phy.Rate2600k, Star: true})
}

// benchMesh runs one mesh scaling cell per iteration (many concurrent TCP
// flows over a generated sparse topology), reporting aggregate goodput,
// simulation speed and the wall time per executed event — the per-event
// cost whose curve over the MeshGrid sizes shows how it grows with N. The
// configs come from experiments.ScalingCell, so these benches measure
// exactly what `aggbench -exp scaling` runs (see also BenchmarkMediumTx in
// internal/medium).
func benchMesh(b *testing.B, cfg core.MeshTCPConfig) {
	b.Helper()
	b.ReportAllocs()
	var res core.MeshResult
	start := time.Now()
	var simulated time.Duration
	var events uint64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res = core.RunMeshTCP(cfg)
		simulated += res.Elapsed
		events += res.EventsRun
	}
	wall := time.Since(start)
	b.ReportMetric(res.AggregateMbps, "Mbps")
	if wall > 0 {
		b.ReportMetric(simulated.Seconds()/wall.Seconds(), "simsec/sec")
	}
	if events > 0 {
		b.ReportMetric(float64(wall.Nanoseconds())/float64(events), "ns/event")
	}
}

func BenchmarkMeshGrid100BA(b *testing.B) {
	benchMesh(b, experiments.ScalingCell(core.MeshGrid, mac.BA, 100, 0))
}
func BenchmarkMeshGrid400BA(b *testing.B) {
	benchMesh(b, experiments.ScalingCell(core.MeshGrid, mac.BA, 400, 0))
}
func BenchmarkMeshDisk100BA(b *testing.B) {
	benchMesh(b, experiments.ScalingCell(core.MeshDisk, mac.BA, 100, 0))
}

// The 1600-node cell is the largest mesh the repo benchmarks.
func BenchmarkMeshGrid1600BA(b *testing.B) {
	benchMesh(b, experiments.ScalingCell(core.MeshGrid, mac.BA, 1600, 0))
}

// BenchmarkMeshGridWaypointBA is the mobility experiment's hottest cell
// (fast nodes, fast updates): it prices the whole time-varying path —
// waypoint stepping, delta link reconciliation, periodic route
// recomputation — on top of the usual many-flow traffic.
func BenchmarkMeshGridWaypointBA(b *testing.B) {
	benchMesh(b, experiments.MobilityCell(mac.BA, 4, 500*time.Millisecond, 0))
}

// benchScenario runs one offered-load cell per iteration: flow arrivals,
// per-flow traffic sources, FCT accounting and the usual mesh traffic
// underneath. The configs come from experiments.LoadCell, so these benches
// measure exactly what `aggbench -exp load` runs.
func benchScenario(b *testing.B, cfg core.ScenarioConfig) {
	b.Helper()
	b.ReportAllocs()
	var res core.ScenarioResult
	start := time.Now()
	var simulated time.Duration
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res = core.RunScenario(cfg)
		simulated += res.Elapsed
	}
	b.ReportMetric(res.AggregateMbps, "Mbps")
	if wall := time.Since(start).Seconds(); wall > 0 {
		b.ReportMetric(simulated.Seconds()/wall, "simsec/sec")
	}
}

func BenchmarkScenarioOpenBA(b *testing.B) {
	benchScenario(b, experiments.LoadCell(traffic.ModeOpen, mac.BA, 1.0, 0, 0, false))
}
func BenchmarkScenarioClosedBA(b *testing.B) {
	benchScenario(b, experiments.LoadCell(traffic.ModeClosed, mac.BA, 0, 6, 0, false))
}

// ---- ablation benches (DESIGN.md §5) ----

// AblationRTS: is RTS/CTS worth its cost once frames are aggregated?
func BenchmarkAblationRTSOn(b *testing.B) {
	benchTCP(b, core.TCPConfig{Scheme: mac.BA, Rate: phy.Rate2600k, Hops: 2})
}

func BenchmarkAblationRTSOff(b *testing.B) {
	b.ReportAllocs()
	var res core.TCPResult
	for i := 0; i < b.N; i++ {
		res = runWithMACTweak(int64(i+1), func(o *mac.Options) { o.UseRTSCTS = false })
	}
	b.ReportMetric(res.ThroughputMbps, "Mbps")
}

// AblationBlockAck: all-or-nothing CRC rule vs per-subframe block ACKs at
// an aggregation size past the coherence budget.
func BenchmarkAblationAllOrNothingOversize(b *testing.B) {
	b.ReportAllocs()
	var res core.TCPResult
	for i := 0; i < b.N; i++ {
		res = core.RunTCP(core.TCPConfig{Scheme: mac.UA, Rate: phy.Rate650k, Hops: 1,
			MaxAggBytes: 8192, FileBytes: 50_000, Seed: int64(i + 1),
			Deadline: 600 * time.Second})
	}
	b.ReportMetric(res.ThroughputMbps, "Mbps")
}

func BenchmarkAblationBlockAckOversize(b *testing.B) {
	b.ReportAllocs()
	var res core.TCPResult
	for i := 0; i < b.N; i++ {
		res = core.RunTCP(core.TCPConfig{Scheme: mac.UA, Rate: phy.Rate650k, Hops: 1,
			MaxAggBytes: 8192, FileBytes: 50_000, BlockAck: true, Seed: int64(i + 1),
			Deadline: 600 * time.Second})
	}
	b.ReportMetric(res.ThroughputMbps, "Mbps")
}

// AblationGather: skip-over queue scan vs head-only runs on the star,
// where the centre interleaves destinations.
func BenchmarkAblationSkipOverGather(b *testing.B) {
	benchTCP(b, core.TCPConfig{Scheme: mac.UA, Rate: phy.Rate2600k, Star: true})
}

func BenchmarkAblationHeadOnlyGather(b *testing.B) {
	b.ReportAllocs()
	var res core.TCPResult
	for i := 0; i < b.N; i++ {
		res = runStarWithMACTweak(int64(i+1), func(o *mac.Options) { o.HeadOnlyGather = true })
	}
	b.ReportMetric(res.ThroughputMbps, "Mbps")
}

// AblationDelayedAck: every-segment ACKing (the paper's stack) vs delayed
// ACKs under BA — fewer ACKs means less backward-aggregation benefit.
func BenchmarkAblationAckEverySegment(b *testing.B) {
	benchTCP(b, core.TCPConfig{Scheme: mac.BA, Rate: phy.Rate2600k, Hops: 2})
}

func BenchmarkAblationDelayedAck(b *testing.B) {
	b.ReportAllocs()
	var res core.TCPResult
	for i := 0; i < b.N; i++ {
		cfg := core.TCPConfig{Scheme: mac.BA, Rate: phy.Rate2600k, Hops: 2, Seed: int64(i + 1)}
		tcfg := defaultTCP()
		tcfg.DelayedAck = true
		cfg.TCP = tcfg
		res = core.RunTCP(cfg)
	}
	b.ReportMetric(res.ThroughputMbps, "Mbps")
}

// AblationDBAThreshold: sensitivity of the delayed-BA frame threshold.
func BenchmarkAblationDBAThreshold2(b *testing.B) { benchDBAThreshold(b, 2) }
func BenchmarkAblationDBAThreshold3(b *testing.B) { benchDBAThreshold(b, 3) }
func BenchmarkAblationDBAThreshold4(b *testing.B) { benchDBAThreshold(b, 4) }

func benchDBAThreshold(b *testing.B, min int) {
	b.Helper()
	b.ReportAllocs()
	var res core.TCPResult
	for i := 0; i < b.N; i++ {
		s := mac.DBA
		s.DelayMinFrames = min
		res = core.RunTCP(core.TCPConfig{Scheme: s, Rate: phy.Rate2600k, Hops: 2, Seed: int64(i + 1)})
	}
	b.ReportMetric(res.ThroughputMbps, "Mbps")
}

// AblationBroadcastPlacement: prepended (paper) vs appended broadcasts.
func BenchmarkAblationBroadcastFirst(b *testing.B) {
	benchTCP(b, core.TCPConfig{Scheme: mac.BA, Rate: phy.Rate2600k, Hops: 2})
}

func BenchmarkAblationBroadcastLast(b *testing.B) {
	b.ReportAllocs()
	var res core.TCPResult
	for i := 0; i < b.N; i++ {
		res = runWithMACTweak(int64(i+1), func(o *mac.Options) { o.BroadcastLast = true })
	}
	b.ReportMetric(res.ThroughputMbps, "Mbps")
}

// AblationAutoAggSize: the §7 rate-adaptive aggregation size at an unsafe
// cap.
func BenchmarkAblationAutoAggSize(b *testing.B) {
	b.ReportAllocs()
	var res core.TCPResult
	for i := 0; i < b.N; i++ {
		res = core.RunTCP(core.TCPConfig{Scheme: mac.UA, Rate: phy.Rate650k, Hops: 1,
			MaxAggBytes: 8192, AutoAggSize: true, FileBytes: 50_000, Seed: int64(i + 1)})
	}
	b.ReportMetric(res.ThroughputMbps, "Mbps")
}

// AblationDedup: duplicate suppression (absent from the Hydra prototype,
// whose subframe header has no sequence field).
func BenchmarkAblationDedupOff(b *testing.B) {
	benchTCP(b, core.TCPConfig{Scheme: mac.BA, Rate: phy.Rate2600k, Hops: 2})
}

func BenchmarkAblationDedupOn(b *testing.B) {
	b.ReportAllocs()
	var res core.TCPResult
	for i := 0; i < b.N; i++ {
		res = runWithMACTweak(int64(i+1), func(o *mac.Options) { o.DedupWindow = 64 })
	}
	b.ReportMetric(res.ThroughputMbps, "Mbps")
}

// Extension tables as benches.
func BenchmarkExtensionFairness(b *testing.B) {
	benchTable(b, experiments.ExtensionFairness, "jain")
}

func BenchmarkExtensionDelay(b *testing.B) {
	benchTable(b, experiments.ExtensionDelay, "ms")
}
