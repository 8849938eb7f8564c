// Golden determinism tests: for one TCP and one UDP configuration per MAC
// scheme, the full result of a seeded run — every throughput float (exact
// bits), every per-node counter, and the scheduler's executed-event count —
// is hashed and pinned in testdata/golden.json.
//
// Any change to the event core, the PHY error model, or the channel that
// alters a single RNG draw, FIFO tie-break, or delivered byte changes these
// hashes. Performance PRs (pooled schedulers, memoized error models,
// zero-copy delivery) must keep them byte-identical; regenerate with
//
//	go test -run TestGolden -update
//
// only when an intentional behaviour change is being made, and say so in the
// commit message.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"aggmac/internal/core"
	"aggmac/internal/faults"
	"aggmac/internal/mac"
	"aggmac/internal/phy"
	"aggmac/internal/traffic"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json from the current implementation")

const goldenPath = "testdata/golden.json"

type goldenEntry struct {
	Hash      string `json:"hash"`
	EventsRun uint64 `json:"events_run"`
}

// hexFloat renders a float64 exactly (hex mantissa), so two runs hash equal
// only when every bit of every metric is equal.
func hexFloat(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

func hashNodes(w *strings.Builder, nodes []core.NodeReport) {
	for _, n := range nodes {
		fmt.Fprintf(w, "node=%d role=%s mac=%+v net=%+v pre=%s\n",
			n.ID, n.Role, n.MAC, n.Net, hexFloat(n.PreambleBytes))
	}
}

func tcpGolden(scheme mac.Scheme) (string, uint64) {
	res := core.RunTCP(core.TCPConfig{
		Scheme: scheme, Rate: phy.Rate2600k, Hops: 2,
		FileBytes: 30_000, Seed: 1,
	})
	var w strings.Builder
	fmt.Fprintf(&w, "tcp scheme=%s completed=%v elapsed=%d events=%d\n",
		scheme.Name(), res.Completed, int64(res.Elapsed), res.EventsRun)
	fmt.Fprintf(&w, "throughput=%s\n", hexFloat(res.ThroughputMbps))
	for _, m := range res.SessionMbps {
		fmt.Fprintf(&w, "session=%s\n", hexFloat(m))
	}
	for _, s := range res.Sessions {
		fmt.Fprintf(&w, "sess %d->%d done=%v finish=%d snd=%+v rcv=%+v\n",
			int(s.Server), int(s.Client), s.Done, int64(s.Finish), s.Sender, s.Receiver)
	}
	hashNodes(&w, res.Nodes)
	return fmt.Sprintf("%x", sha256.Sum256([]byte(w.String()))), res.EventsRun
}

func udpGolden(scheme mac.Scheme) (string, uint64) {
	res := core.RunUDP(core.UDPConfig{
		Scheme: scheme, Rate: phy.Rate2600k, Hops: 2,
		Duration: 5 * time.Second, Warmup: 1 * time.Second, Seed: 1,
	})
	var w strings.Builder
	fmt.Fprintf(&w, "udp scheme=%s packets=%d events=%d\n",
		scheme.Name(), res.SinkPackets, res.EventsRun)
	fmt.Fprintf(&w, "throughput=%s\n", hexFloat(res.ThroughputMbps))
	fmt.Fprintf(&w, "delay n=%d mean=%d p50=%d p95=%d max=%d\n",
		res.Delay.Count, int64(res.Delay.Mean), int64(res.Delay.P50),
		int64(res.Delay.P95), int64(res.Delay.Max))
	hashNodes(&w, res.Nodes)
	return fmt.Sprintf("%x", sha256.Sum256([]byte(w.String()))), res.EventsRun
}

// meshGolden pins large-topology determinism the same way: the full result
// of a seeded many-flow mesh run — per-flow goodput bits, per-node
// counters, event count — hashed. Grid and random-disk layouts are both
// covered so generator placement, bridging, and shortest-path routing stay
// deterministic too.
func meshGolden(topo string, scheme mac.Scheme) (string, uint64) {
	return hashMesh(core.MeshTCPConfig{
		Scheme: scheme, Rate: phy.Rate2600k,
		Topology: topo, Nodes: 16, Flows: 3,
		FileBytes: 15_000, Seed: 1,
	})
}

func hashMesh(cfg core.MeshTCPConfig) (string, uint64) {
	res := core.RunMeshTCP(cfg)
	var w strings.Builder
	fmt.Fprintf(&w, "mesh topo=%s scheme=%s nodes=%d links=%d deg=%s completed=%v elapsed=%d events=%d\n",
		cfg.Topology, cfg.Scheme.Name(), res.NodeCount, res.LinkCount, hexFloat(res.AvgDegree),
		res.Completed, int64(res.Elapsed), res.EventsRun)
	fmt.Fprintf(&w, "agg=%s min=%s mean=%s done=%d\n",
		hexFloat(res.AggregateMbps), hexFloat(res.MinMbps), hexFloat(res.MeanMbps), res.FlowsDone)
	for _, f := range res.Flows {
		fmt.Fprintf(&w, "flow %d->%d hops=%d done=%v finish=%d mbps=%s\n",
			int(f.Server), int(f.Client), f.Hops, f.Done, int64(f.Finish), hexFloat(f.Mbps))
	}
	hashNodes(&w, res.Nodes)
	return fmt.Sprintf("%x", sha256.Sum256([]byte(w.String()))), res.EventsRun
}

// mobilityGolden pins the full time-varying pipeline: a seeded mobile-mesh
// run — waypoint or drift motion, delta link reconciliation, periodic
// route recomputation — hashed like meshGolden plus the churn counters
// (link ups/downs, route flaps, recompute rounds).
func mobilityGolden(kind string, scheme mac.Scheme, speed float64) (string, uint64) {
	res := core.RunMeshTCP(core.MeshTCPConfig{
		Scheme: scheme, Rate: phy.Rate2600k,
		Topology: core.MeshGrid, Nodes: 16, Flows: 3,
		FileBytes: 15_000, Seed: 1,
		Mobility: kind, Speed: speed,
		Pause: time.Second, MoveInterval: 500 * time.Millisecond,
		Deadline: 300 * time.Second,
	})
	var w strings.Builder
	fmt.Fprintf(&w, "mobility kind=%s scheme=%s speed=%s nodes=%d links=%d completed=%v elapsed=%d events=%d\n",
		kind, scheme.Name(), hexFloat(speed), res.NodeCount, res.LinkCount,
		res.Completed, int64(res.Elapsed), res.EventsRun)
	fmt.Fprintf(&w, "churn ups=%d downs=%d flaps=%d recomputes=%d\n",
		res.LinkUps, res.LinkDowns, res.RouteFlaps, res.RouteRecomputes)
	fmt.Fprintf(&w, "agg=%s min=%s mean=%s done=%d\n",
		hexFloat(res.AggregateMbps), hexFloat(res.MinMbps), hexFloat(res.MeanMbps), res.FlowsDone)
	for _, f := range res.Flows {
		fmt.Fprintf(&w, "flow %d->%d hops=%d done=%v finish=%d mbps=%s\n",
			int(f.Server), int(f.Client), f.Hops, f.Done, int64(f.Finish), hexFloat(f.Mbps))
	}
	hashNodes(&w, res.Nodes)
	return fmt.Sprintf("%x", sha256.Sum256([]byte(w.String()))), res.EventsRun
}

// faultGolden pins the fault-injection pipeline: a seeded faulty mesh run —
// crash/recover hooks, flap and partition link cuts through the overlay,
// killed-flow classification, stall and availability accounting — hashed
// like meshGolden plus every fault counter and degradation metric.
func faultGolden(kind string, scheme mac.Scheme) (string, uint64) {
	cfg := core.MeshTCPConfig{
		Scheme: scheme, Rate: phy.Rate2600k,
		Topology: core.MeshGrid, Nodes: 16, Flows: 3,
		FileBytes: 15_000, Seed: 1,
		Deadline: 300 * time.Second,
	}
	switch kind {
	case "crash":
		cfg.Faults = &faults.Config{CrashMTBF: 20 * time.Second, CrashMTTR: 5 * time.Second}
	case "flap":
		cfg.Faults = &faults.Config{FlapMTBF: 10 * time.Second, FlapMTTR: 2 * time.Second}
	case "partition":
		cfg.Faults = &faults.Config{Partitions: []faults.Partition{
			{Start: 2 * time.Second, Duration: 10 * time.Second, Axis: faults.AxisX, At: 1.5},
		}}
	default:
		panic("unknown fault golden kind " + kind)
	}
	res := core.RunMeshTCP(cfg)
	var w strings.Builder
	fmt.Fprintf(&w, "faults kind=%s scheme=%s nodes=%d links=%d completed=%v elapsed=%d events=%d\n",
		kind, scheme.Name(), res.NodeCount, res.LinkCount,
		res.Completed, int64(res.Elapsed), res.EventsRun)
	fmt.Fprintf(&w, "churn ups=%d downs=%d flaps=%d recomputes=%d\n",
		res.LinkUps, res.LinkDowns, res.RouteFlaps, res.RouteRecomputes)
	fmt.Fprintf(&w, "faults crashes=%d recoveries=%d flapdowns=%d flapups=%d parts=%d/%d bursts=%d\n",
		res.NodeCrashes, res.NodeRecoveries, res.FaultLinkDowns, res.FaultLinkUps,
		res.PartitionsStarted, res.PartitionsHealed, res.SNRBursts)
	fmt.Fprintf(&w, "degradation killed=%d avail=%s heal=%d maxstall=%d meanstall=%d\n",
		res.FlowsKilledByFault, hexFloat(res.Availability), int64(res.MeanHealLatency),
		int64(res.MaxFlowStall), int64(res.MeanFlowStall))
	fmt.Fprintf(&w, "agg=%s min=%s mean=%s done=%d\n",
		hexFloat(res.AggregateMbps), hexFloat(res.MinMbps), hexFloat(res.MeanMbps), res.FlowsDone)
	for _, f := range res.Flows {
		fmt.Fprintf(&w, "flow %d->%d hops=%d done=%v killed=%v finish=%d stall=%d mbps=%s\n",
			int(f.Server), int(f.Client), f.Hops, f.Done, f.Killed,
			int64(f.Finish), int64(f.Stall), hexFloat(f.Mbps))
	}
	hashNodes(&w, res.Nodes)
	return fmt.Sprintf("%x", sha256.Sum256([]byte(w.String()))), res.EventsRun
}

// scenarioGolden pins the workload engine: a seeded scenario run — flow
// arrivals, per-flow traffic sources, FCT accounting — hashed over every
// per-flow outcome (endpoints, model, arrival time, delivered bytes, FCT
// bits), the aggregate and per-model summaries, churn counters and
// per-node counters.
func scenarioGolden(mode string, scheme mac.Scheme) (string, uint64) {
	sc := traffic.Scenario{
		Version:   traffic.SchemaVersion,
		Name:      "golden-" + mode,
		Seed:      1,
		DurationS: 20,
		DeadlineS: 60,
		Schemes:   []string{"na", "ua", "ba", "dba"},
		RateMbps:  2.6,
		Topology:  traffic.Topology{Kind: "grid", Nodes: 16},
		Traffic: traffic.Traffic{
			Mode:        mode,
			ArrivalRate: 0.5,
			Users:       3,
			ThinkS:      1,
			Mix: []traffic.WeightedModel{
				{Model: traffic.Model{Kind: traffic.Pareto, Bytes: 8_000, MaxBytes: 80_000}, Weight: 2},
				{Model: traffic.Model{Kind: traffic.CBR, RateMbps: 0.05, PacketBytes: 600, DurationS: 3}, Weight: 1},
			},
		},
	}
	res := core.RunScenario(core.ScenarioConfig{Scenario: sc, Scheme: scheme})
	var w strings.Builder
	fmt.Fprintf(&w, "scenario mode=%s scheme=%s nodes=%d links=%d deg=%s elapsed=%d events=%d\n",
		mode, res.Scheme, res.NodeCount, res.LinkCount, hexFloat(res.AvgDegree),
		int64(res.Elapsed), res.EventsRun)
	fmt.Fprintf(&w, "churn started=%d done=%d abandoned=%d skipped=%d peak=%d\n",
		res.FlowsStarted, res.FlowsCompleted, res.FlowsAbandoned, res.FlowsSkipped, res.PeakActive)
	fmt.Fprintf(&w, "agg=%s delivered=%d fct mean=%d p50=%d p95=%d p99=%d max=%d n=%d\n",
		hexFloat(res.AggregateMbps), res.DeliveredBytes,
		int64(res.FCT.Mean), int64(res.FCT.P50), int64(res.FCT.P95),
		int64(res.FCT.P99), int64(res.FCT.Max), res.FCT.Count)
	for _, pm := range res.PerModel {
		fmt.Fprintf(&w, "model %s flows=%d done=%d bytes=%d mbps=%s p99=%d\n",
			pm.Kind, pm.Flows, pm.FlowsDone, pm.Bytes, hexFloat(pm.GoodputMbps), int64(pm.FCT.P99))
	}
	for _, f := range res.Flows {
		fmt.Fprintf(&w, "flow %d->%d model=%d hops=%d start=%d bytes=%d done=%v fct=%d\n",
			int(f.Server), int(f.Client), f.Model, f.Hops, int64(f.Start), f.Bytes, f.Done, int64(f.FCT))
	}
	hashNodes(&w, res.Nodes)
	return fmt.Sprintf("%x", sha256.Sum256([]byte(w.String()))), res.EventsRun
}

// scaleGoldens are rows too slow for every `go test`: TestGoldenDeterminism
// runs them only with AGGMAC_SCALE set (the CI scale job), and otherwise
// neither checks nor rewrites them.
var scaleGoldens = map[string]func() (string, uint64){
	// The N=400 grid scaling cell, run to completion. It was recorded with
	// all-pairs routes on the neighbor-indexed medium, and at recording
	// time the O(N) dense-scan medium and endpoint-only routes produced the
	// identical hash, so it pins today's route policy and medium against
	// both.
	"scale-mesh-grid-n400/ba": func() (string, uint64) {
		return hashMesh(core.MeshTCPConfig{
			Scheme: mac.BA, Rate: phy.Rate2600k,
			Topology: core.MeshGrid, Nodes: 400, Flows: 33,
			FileBytes: 30_000, Seed: 1,
			Deadline: 1200 * time.Second,
		})
	},
}

func goldenSchemes() []mac.Scheme {
	return []mac.Scheme{mac.NA, mac.UA, mac.BA, mac.DBA}
}

func runGoldens(scale bool) map[string]goldenEntry {
	got := make(map[string]goldenEntry)
	for _, s := range goldenSchemes() {
		h, ev := tcpGolden(s)
		got["tcp/"+s.Name()] = goldenEntry{Hash: h, EventsRun: ev}
		h, ev = udpGolden(s)
		got["udp/"+s.Name()] = goldenEntry{Hash: h, EventsRun: ev}
	}
	for _, s := range []mac.Scheme{mac.NA, mac.UA, mac.BA} {
		h, ev := meshGolden(core.MeshGrid, s)
		got["mesh-grid/"+s.Name()] = goldenEntry{Hash: h, EventsRun: ev}
		h, ev = meshGolden(core.MeshDisk, s)
		got["mesh-disk/"+s.Name()] = goldenEntry{Hash: h, EventsRun: ev}
	}
	for _, mc := range []struct {
		kind   string
		scheme mac.Scheme
		speed  float64
	}{
		{core.MobilityWaypoint, mac.BA, 2},
		{core.MobilityWaypoint, mac.NA, 1},
		{core.MobilityDrift, mac.UA, 4},
	} {
		h, ev := mobilityGolden(mc.kind, mc.scheme, mc.speed)
		got[fmt.Sprintf("mobility-%s/%s", mc.kind, mc.scheme.Name())] = goldenEntry{Hash: h, EventsRun: ev}
	}
	for _, fg := range []struct {
		kind   string
		scheme mac.Scheme
	}{
		{"crash", mac.NA},
		{"crash", mac.BA},
		{"flap", mac.UA},
		{"flap", mac.BA},
		{"partition", mac.NA},
		{"partition", mac.UA},
	} {
		h, ev := faultGolden(fg.kind, fg.scheme)
		got[fmt.Sprintf("faults-%s/%s", fg.kind, fg.scheme.Name())] = goldenEntry{Hash: h, EventsRun: ev}
	}
	for _, sg := range []struct {
		mode   string
		scheme mac.Scheme
	}{
		{traffic.ModeOpen, mac.BA},
		{traffic.ModeClosed, mac.UA},
	} {
		h, ev := scenarioGolden(sg.mode, sg.scheme)
		got[fmt.Sprintf("scenario-%s/%s", sg.mode, sg.scheme.Name())] = goldenEntry{Hash: h, EventsRun: ev}
	}
	if scale {
		for name, run := range scaleGoldens {
			h, ev := run()
			got[name] = goldenEntry{Hash: h, EventsRun: ev}
		}
	}
	return got
}

func TestGoldenDeterminism(t *testing.T) {
	scale := os.Getenv("AGGMAC_SCALE") != ""
	got := runGoldens(scale)

	if *updateGolden {
		if !scale {
			// The scale rows did not run: carry them over unchanged. A
			// missing or unparsable file has none to carry.
			var prev map[string]goldenEntry
			if blob, err := os.ReadFile(goldenPath); err == nil {
				_ = json.Unmarshal(blob, &prev)
			}
			for name := range scaleGoldens {
				if e, ok := prev[name]; ok {
					got[name] = e
				}
			}
		}
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d entries", goldenPath, len(got))
		return
	}

	blob, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	var want map[string]goldenEntry
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("parsing %s: %v", goldenPath, err)
	}
	if !scale {
		for name := range scaleGoldens {
			delete(want, name)
		}
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d entries, run produced %d", len(want), len(got))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: missing from run", name)
			continue
		}
		if g.EventsRun != w.EventsRun {
			t.Errorf("%s: EventsRun = %d, golden %d (the event sequence changed)",
				name, g.EventsRun, w.EventsRun)
		}
		if g.Hash != w.Hash {
			t.Errorf("%s: output hash %s, golden %s (output is no longer byte-identical)",
				name, g.Hash, w.Hash)
		}
	}
}
