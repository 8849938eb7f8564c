package core

import (
	"reflect"
	"testing"
	"time"

	"aggmac/internal/faults"
	"aggmac/internal/mac"
	"aggmac/internal/sim"
	"aggmac/internal/traffic"
)

func quickFaultCfg() MeshTCPConfig {
	cfg := quickMeshCfg()
	cfg.Nodes = 16
	cfg.Flows = 3
	cfg.Deadline = 300 * time.Second
	cfg.Faults = &faults.Config{CrashMTBF: 10 * time.Second, CrashMTTR: 5 * time.Second}
	return cfg
}

// A faulty run is a pure function of its config: same seed, same events,
// same fault schedule, same degradation metrics.
func TestRunMeshTCPFaultsDeterministic(t *testing.T) {
	a := RunMeshTCP(quickFaultCfg())
	b := RunMeshTCP(quickFaultCfg())
	if a.EventsRun != b.EventsRun {
		t.Fatalf("EventsRun diverged: %d vs %d", a.EventsRun, b.EventsRun)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical faulty configs produced different results")
	}
}

// Crash faults must be observable end to end: crashes counted, availability
// below 1, and any flow whose endpoint crashed classified as killed (not
// merely unfinished) with its goodput zeroed.
func TestRunMeshTCPFaultsCrash(t *testing.T) {
	res := RunMeshTCP(quickFaultCfg())
	if res.NodeCrashes == 0 {
		t.Fatal("300 s at 10 s MTBF observed no crashes")
	}
	if res.Availability >= 1 || res.Availability <= 0 {
		t.Fatalf("availability %v despite crashes", res.Availability)
	}
	killed := 0
	for _, f := range res.Flows {
		if f.Killed {
			killed++
			if f.Done {
				t.Errorf("flow %d->%d both done and killed", f.Server, f.Client)
			}
			if f.Mbps != 0 {
				t.Errorf("killed flow %d->%d credited %v Mbps", f.Server, f.Client, f.Mbps)
			}
		}
	}
	if killed != res.FlowsKilledByFault {
		t.Errorf("FlowsKilledByFault=%d but %d flows marked killed", res.FlowsKilledByFault, killed)
	}
	if res.FlowsDone+killed > len(res.Flows) {
		t.Errorf("done %d + killed %d exceeds %d flows", res.FlowsDone, killed, len(res.Flows))
	}
}

// A fault-free run reports the zero fault outcome: availability exactly 1,
// no crashes, no kills, no stalls beyond the flows' own progress gaps.
func TestRunMeshTCPFaultsOffBaseline(t *testing.T) {
	res := RunMeshTCP(quickMeshCfg())
	if res.NodeCrashes != 0 || res.FaultLinkDowns != 0 || res.PartitionsStarted != 0 ||
		res.SNRBursts != 0 || res.FlowsKilledByFault != 0 {
		t.Errorf("fault counters nonzero on a fault-free run: %+v", res)
	}
	if res.Availability != 1 {
		t.Errorf("availability %v on a fault-free run, want exactly 1", res.Availability)
	}
	for _, f := range res.Flows {
		if f.Killed {
			t.Errorf("flow %d->%d killed without faults", f.Server, f.Client)
		}
	}
}

// A scheduled partition must open and heal on the dynamics tick, cut the
// crossing links while active (visible as route recompute rounds), and
// report the reconnection latency.
func TestRunMeshTCPFaultsPartition(t *testing.T) {
	cfg := quickMeshCfg()
	cfg.Nodes = 16
	cfg.Deadline = 300 * time.Second
	cfg.Faults = &faults.Config{Partitions: []faults.Partition{
		{Start: 1 * time.Second, Duration: 5 * time.Second, Axis: faults.AxisX, At: 1.5},
	}}
	res := RunMeshTCP(cfg)
	if res.PartitionsStarted != 1 || res.PartitionsHealed != 1 {
		t.Fatalf("partitions %d/%d, want 1/1", res.PartitionsStarted, res.PartitionsHealed)
	}
	// Partition cuts flow through UpdateLinks, so they land in the same
	// link-churn counters mobility uses (FaultLinkDowns counts flap edges).
	if res.LinkDowns == 0 || res.LinkUps == 0 {
		t.Errorf("partition cut no links: downs=%d ups=%d", res.LinkDowns, res.LinkUps)
	}
	if res.RouteRecomputes == 0 {
		t.Error("partition edges triggered no route recompute")
	}
	if res.MeanHealLatency < 0 || res.MeanHealLatency >= time.Second {
		t.Errorf("heal latency %v outside one dynamics tick", res.MeanHealLatency)
	}
}

// SNR bursts must degrade links through the overlay without any crash/kill
// side effects.
func TestRunMeshTCPFaultsSNRBurst(t *testing.T) {
	cfg := quickMeshCfg()
	cfg.Nodes = 16
	cfg.Deadline = 300 * time.Second
	cfg.Faults = &faults.Config{SNRBurstMTBF: 5 * time.Second, SNRBurstMTTR: 2 * time.Second, SNRBurstDB: 40}
	res := RunMeshTCP(cfg)
	if res.SNRBursts == 0 {
		t.Fatal("no SNR bursts at 5 s MTBF over 300 s")
	}
	if res.NodeCrashes != 0 || res.FlowsKilledByFault != 0 {
		t.Errorf("bursts caused crashes/kills: %d/%d", res.NodeCrashes, res.FlowsKilledByFault)
	}
	// Bursts do not cut links; they lower SNR on the reconcile. A 40 dB
	// penalty must change the channel's error draws, so the run cannot be
	// identical to the burst-free one.
	baseline := quickMeshCfg()
	baseline.Nodes = 16
	baseline.Deadline = 300 * time.Second
	if reflect.DeepEqual(res.Flows, RunMeshTCP(baseline).Flows) {
		t.Error("40 dB bursts left every flow outcome bit-identical to the burst-free run")
	}
}

// Faults compose with mobility on one dynamics tick.
func TestRunMeshTCPFaultsWithMobility(t *testing.T) {
	cfg := quickMobilityCfg()
	cfg.Faults = &faults.Config{CrashMTBF: 20 * time.Second, CrashMTTR: 5 * time.Second}
	a := RunMeshTCP(cfg)
	b := RunMeshTCP(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("mobile faulty runs diverged")
	}
	if a.RouteRecomputes == 0 {
		t.Error("no recompute rounds on a mobile faulty run")
	}
	if a.NodeCrashes == 0 {
		t.Error("no crashes at 20 s MTBF over the mobile run")
	}
}

// The wall-clock watchdog converts a hung run into a typed panic without
// perturbing the event order of runs that finish in time.
func TestRunMeshTCPWallBudget(t *testing.T) {
	cfg := quickMeshCfg()
	cfg.WallBudget = time.Hour // generous: must not fire
	withBudget := RunMeshTCP(cfg)
	plain := RunMeshTCP(quickMeshCfg())
	if !reflect.DeepEqual(withBudget, plain) {
		t.Fatal("an unfired wall budget changed the run")
	}

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("1 ns wall budget did not fire")
		}
		if _, ok := r.(*sim.WallBudgetError); !ok {
			t.Fatalf("panic value %T, want *sim.WallBudgetError", r)
		}
	}()
	cfg = quickMeshCfg()
	cfg.WallBudget = time.Nanosecond
	RunMeshTCP(cfg)
}

// Scenario runs thread the same fault pipeline: killed flows are classified
// apart from abandoned ones and the run stays deterministic.
func TestRunScenarioFaults(t *testing.T) {
	sc := traffic.Scenario{
		Version:   traffic.SchemaVersion,
		Name:      "faulty",
		Seed:      1,
		DurationS: 30,
		DeadlineS: 90,
		Schemes:   []string{"ba"},
		RateMbps:  2.6,
		Topology:  traffic.Topology{Kind: "grid", Nodes: 16},
		Traffic: traffic.Traffic{
			Mode:        traffic.ModeOpen,
			ArrivalRate: 0.5,
			Mix: []traffic.WeightedModel{
				{Model: traffic.Model{Kind: traffic.Pareto, Bytes: 8_000, MaxBytes: 40_000}, Weight: 1},
			},
		},
		Faults: &traffic.Faults{CrashMTBFS: 8, CrashMTTRS: 4},
	}
	a := RunScenario(ScenarioConfig{Scenario: sc, Scheme: mac.BA})
	b := RunScenario(ScenarioConfig{Scenario: sc, Scheme: mac.BA})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("faulty scenario runs diverged")
	}
	if a.NodeCrashes == 0 {
		t.Fatal("no crashes at 8 s MTBF over 30 s on 16 nodes")
	}
	if a.Availability >= 1 {
		t.Errorf("availability %v despite crashes", a.Availability)
	}
	killed := 0
	for _, f := range a.Flows {
		if f.Killed {
			killed++
			if f.Done {
				t.Errorf("flow %d->%d both done and killed", f.Server, f.Client)
			}
		}
	}
	if killed != a.FlowsKilledByFault {
		t.Errorf("FlowsKilledByFault=%d but %d flows marked killed", a.FlowsKilledByFault, killed)
	}
	if a.FlowsStarted != a.FlowsCompleted+a.FlowsAbandoned+a.FlowsKilledByFault {
		t.Errorf("flow accounting: started %d != done %d + abandoned %d + killed %d",
			a.FlowsStarted, a.FlowsCompleted, a.FlowsAbandoned, a.FlowsKilledByFault)
	}
}

// A v1 scenario (no faults section) still runs, and a faults section on a
// v1 scenario is rejected at validation.
func TestScenarioFaultsVersionGate(t *testing.T) {
	sc := traffic.Scenario{
		Version:   1,
		Name:      "v1",
		Seed:      1,
		DurationS: 5,
		DeadlineS: 20,
		Schemes:   []string{"ba"},
		RateMbps:  2.6,
		Topology:  traffic.Topology{Kind: "grid", Nodes: 9},
		Traffic: traffic.Traffic{
			Mode:        traffic.ModeOpen,
			ArrivalRate: 0.3,
			Mix: []traffic.WeightedModel{
				{Model: traffic.Model{Kind: traffic.Pareto, Bytes: 4_000, MaxBytes: 20_000}, Weight: 1},
			},
		},
	}
	RunScenario(ScenarioConfig{Scenario: sc, Scheme: mac.BA}) // must not panic

	sc.Faults = &traffic.Faults{CrashMTBFS: 10}
	defer func() {
		if recover() == nil {
			t.Fatal("v1 scenario with a faults section did not panic")
		}
	}()
	RunScenario(ScenarioConfig{Scenario: sc, Scheme: mac.BA})
}
