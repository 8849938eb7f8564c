// The -benchjson / -benchfmt modes: run the repo's headline benchmarks
// in-process (via testing.Benchmark) and record ns/op, allocs/op and
// simsec/sec as JSON, so the perf trajectory of the simulator is committed
// alongside the code (BENCH_baseline.json) and CI can compare fresh runs
// against it with benchstat.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"aggmac/internal/core"
	"aggmac/internal/experiments"
	"aggmac/internal/mac"
	"aggmac/internal/medium"
	"aggmac/internal/phy"
	"aggmac/internal/traffic"
)

// BenchRecord is one benchmark's committed measurement.
type BenchRecord struct {
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	SimsecPerSec float64 `json:"simsec_per_sec"`
	Mbps         float64 `json:"mbps"`
}

// benchCase is one headline benchmark: per iteration it runs a full
// simulation at the given seed and reports goodput plus simulated time.
type benchCase struct {
	Name string
	Run  func(seed int64) (mbps float64, simulated time.Duration)
}

func tcpCase(name string, cfg core.TCPConfig) benchCase {
	return benchCase{Name: name, Run: func(seed int64) (float64, time.Duration) {
		cfg.Seed = seed
		res := core.RunTCP(cfg)
		return res.ThroughputMbps, res.Elapsed
	}}
}

func meshCase(name string, cfg core.MeshTCPConfig) benchCase {
	return benchCase{Name: name, Run: func(seed int64) (float64, time.Duration) {
		cfg.Seed = seed
		res := core.RunMeshTCP(cfg)
		return res.AggregateMbps, res.Elapsed
	}}
}

// mediumTxCase mirrors internal/medium's BenchmarkMediumTx/<name> rows
// through the shared TxBench harness: per-op cost of one transmission burst
// on a k×k grid. The workload is built lazily on the first iteration and
// reused, so — like the Go benchmark — the recorded ns/op and B/op are the
// steady state, not construction. Seeds are ignored: the workload is
// deterministic and stateless across bursts.
func mediumTxCase(name string, k int) benchCase {
	var tb *medium.TxBench
	return benchCase{Name: name, Run: func(int64) (float64, time.Duration) {
		if tb == nil {
			tb = medium.NewTxBench(k)
		}
		before := tb.SimNow()
		tb.Burst()
		return 0, tb.SimNow() - before
	}}
}

func scenarioCase(name string, cfg core.ScenarioConfig) benchCase {
	return benchCase{Name: name, Run: func(seed int64) (float64, time.Duration) {
		cfg.Seed = seed
		res := core.RunScenario(cfg)
		return res.AggregateMbps, res.Elapsed
	}}
}

// headlineBenches mirrors the BenchmarkTCP2Hop*/BenchmarkTCPStarBA and
// BenchmarkMesh* benches in bench_test.go: same configs, same
// per-iteration seed derivation, so a `go test -bench` run is directly
// comparable to a -benchjson record. The mesh entries are the scaling and
// mobility experiments' own cells (experiments.ScalingCell /
// experiments.MobilityCell).
func headlineBenches() []benchCase {
	cases := []benchCase{
		tcpCase("BenchmarkTCP2HopNA", core.TCPConfig{Scheme: mac.NA, Rate: phy.Rate2600k, Hops: 2}),
		tcpCase("BenchmarkTCP2HopUA", core.TCPConfig{Scheme: mac.UA, Rate: phy.Rate2600k, Hops: 2}),
		tcpCase("BenchmarkTCP2HopBA", core.TCPConfig{Scheme: mac.BA, Rate: phy.Rate2600k, Hops: 2}),
		tcpCase("BenchmarkTCP2HopDBA", core.TCPConfig{Scheme: mac.DBA, Rate: phy.Rate2600k, Hops: 2}),
		tcpCase("BenchmarkTCPStarBA", core.TCPConfig{Scheme: mac.BA, Rate: phy.Rate2600k, Star: true}),
		meshCase("BenchmarkMeshGrid100BA", experiments.ScalingCell(core.MeshGrid, mac.BA, 100, 0)),
		meshCase("BenchmarkMeshGrid400BA", experiments.ScalingCell(core.MeshGrid, mac.BA, 400, 0)),
		meshCase("BenchmarkMeshDisk100BA", experiments.ScalingCell(core.MeshDisk, mac.BA, 100, 0)),
	}
	// Sharded twins of the scaling cells: identical scenarios on the
	// parallel engine, so the baseline pins the conservative
	// synchronization's overhead (single-core) or speedup (multi-core).
	shard400 := experiments.ScalingCell(core.MeshGrid, mac.BA, 400, 0)
	shard400.Shards = 4
	cases = append(cases, meshCase("BenchmarkMeshGrid400BAShard4", shard400))
	cases = append(cases, meshCase("BenchmarkMeshGrid1600BA",
		experiments.ScalingCell(core.MeshGrid, mac.BA, 1600, 0)))
	shard1600 := experiments.ScalingCell(core.MeshGrid, mac.BA, 1600, 0)
	shard1600.Shards = 4
	cases = append(cases, meshCase("BenchmarkMeshGrid1600BAShard4", shard1600))
	cases = append(cases, meshCase("BenchmarkMeshGridWaypointBA",
		experiments.MobilityCell(mac.BA, 4, 500*time.Millisecond, 0)))
	// The workload engine's own cells: the offered-load experiment's
	// highest open-loop rate and its closed-loop population, both under
	// BA — they price flow arrivals, per-flow sources and FCT accounting
	// on top of the usual mesh traffic.
	cases = append(cases,
		scenarioCase("BenchmarkScenarioOpenBA",
			experiments.LoadCell(traffic.ModeOpen, mac.BA, 1.0, 0, 0, false)),
		scenarioCase("BenchmarkScenarioClosedBA",
			experiments.LoadCell(traffic.ModeClosed, mac.BA, 0, 6, 0, false)))
	// The medium's transmission-burst micro-benches (see internal/medium
	// BenchmarkMediumTx): the rows whose B/op the CI bench gate watches for
	// sparse-table allocation regressions.
	for _, k := range []int{5, 10, 20} { // N = 25, 100, 400
		cases = append(cases, mediumTxCase(fmt.Sprintf("BenchmarkMediumTx/N%d/indexed", k*k), k))
	}
	return cases
}

func measure(bc benchCase) BenchRecord {
	var mbps float64
	var simulated time.Duration
	var wall time.Duration
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		simulated = 0
		start := time.Now()
		for i := 0; i < b.N; i++ {
			m, sim := bc.Run(int64(i + 1))
			simulated += sim
			mbps = m
		}
		wall = time.Since(start)
	})
	rec := BenchRecord{
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Mbps:        mbps,
	}
	if w := wall.Seconds(); w > 0 {
		rec.SimsecPerSec = simulated.Seconds() / w
	}
	return rec
}

func writeBenchJSON(w io.Writer, filter string) error {
	out := make(map[string]BenchRecord)
	for _, bc := range headlineBenches() {
		if filter != "" && !strings.Contains(bc.Name, filter) {
			continue
		}
		fmt.Fprintf(os.Stderr, "aggbench: benching %s\n", bc.Name)
		out[bc.Name] = measure(bc)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// writeBenchText converts a -benchjson file to `go test -bench` output text
// so benchstat can diff a committed baseline against a fresh run.
func writeBenchText(w io.Writer, path string) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var recs map[string]BenchRecord
	if err := json.Unmarshal(blob, &recs); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	names := make([]string, 0, len(recs))
	for n := range recs {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintln(w, "goos: linux")
	fmt.Fprintln(w, "goarch: amd64")
	fmt.Fprintln(w, "pkg: aggmac")
	for _, n := range names {
		r := recs[n]
		// Repeat each measurement so benchstat has enough samples to print
		// a delta against a -count=5 fresh run (a single sample renders as
		// "~" and defeats the CI regression grep). Names carry no
		// -GOMAXPROCS suffix; the CI job strips the suffix from the fresh
		// run so the rows key together.
		for i := 0; i < 5; i++ {
			fmt.Fprintf(w, "%s \t 1\t%.0f ns/op\t%d B/op\t%d allocs/op\t%.2f simsec/sec\n",
				n, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp, r.SimsecPerSec)
		}
	}
	return nil
}
