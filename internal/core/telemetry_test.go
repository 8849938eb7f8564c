package core

import (
	"bytes"
	"testing"
	"time"

	"aggmac/internal/mac"
	"aggmac/internal/telemetry"
	"aggmac/internal/traffic"
)

// meshMetricsConfig is the shared cell for the determinism tests: small
// enough for CI, busy enough that every instrumented layer moves.
func meshMetricsConfig() MeshTCPConfig {
	return MeshTCPConfig{
		Scheme: mac.BA, Topology: MeshGrid, Nodes: 25, Flows: 4,
		FileBytes: 8000, Seed: 3, Deadline: 120 * time.Second,
	}
}

// TestMetricsOffLeavesRunUntouched: attaching a recorder must not change
// anything the simulation computes except the executed event count (the
// sampler's own ticks). This is the golden-hash contract: metrics off is
// the default, and metrics on only adds observation.
func TestMetricsOffLeavesRunUntouched(t *testing.T) {
	plain := RunMeshTCP(meshMetricsConfig())

	cfg := meshMetricsConfig()
	cfg.Metrics = telemetry.NewRecorder(100 * time.Millisecond)
	instrumented := RunMeshTCP(cfg)

	if instrumented.EventsRun <= plain.EventsRun {
		t.Fatalf("sampler scheduled no events: %d vs %d", instrumented.EventsRun, plain.EventsRun)
	}
	plain.EventsRun, instrumented.EventsRun = 0, 0
	if h1, h2 := resultDigest(t, plain), resultDigest(t, instrumented); h1 != h2 {
		t.Fatalf("metrics-on run diverged from metrics-off run:\n%s\nvs\n%s", h1, h2)
	}
}

// runMeshJSONL runs the shared cell with a recorder and returns the JSONL
// export bytes.
func runMeshJSONL(t *testing.T) []byte {
	t.Helper()
	cfg := meshMetricsConfig()
	cfg.Metrics = telemetry.NewRecorder(100 * time.Millisecond)
	RunMeshTCP(cfg)
	var buf bytes.Buffer
	if err := cfg.Metrics.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	return buf.Bytes()
}

// TestMeshMetricsDeterministic: the sampled series are a pure function of
// the config — byte-identical across repeats.
func TestMeshMetricsDeterministic(t *testing.T) {
	ref := runMeshJSONL(t)
	for rep := 0; rep < 2; rep++ {
		if got := runMeshJSONL(t); !bytes.Equal(got, ref) {
			t.Fatalf("rep %d: JSONL differs across identical runs", rep)
		}
	}
}

// TestMeshMetricsCoverLayers: the catalog's medium, MAC, TCP and sim series
// must all move on a busy mesh — and the paper's core quantity,
// ACKs-suppressed-by-broadcast, must be nonzero under the BA scheme.
func TestMeshMetricsCoverLayers(t *testing.T) {
	cfg := meshMetricsConfig()
	cfg.Metrics = telemetry.NewRecorder(100 * time.Millisecond)
	RunMeshTCP(cfg)
	s := cfg.Metrics.Summary()
	if s == nil || s.Ticks == 0 {
		t.Fatalf("no ticks sampled: %+v", s)
	}
	byName := map[string]telemetry.MetricSummary{}
	for _, m := range s.Metrics {
		byName[m.Name] = m
	}
	for _, name := range []string{
		"medium.airtime_frac", "mac.agg_fill_ratio", "mac.acks_suppressed",
		"net.tcp_acks_bcast", "tcp.cwnd_bytes", "sim.events_run",
	} {
		m, ok := byName[name]
		if !ok {
			t.Fatalf("series %q missing from summary (have %d series)", name, len(s.Metrics))
		}
		if m.Max <= 0 {
			t.Fatalf("series %q never moved: %+v", name, m)
		}
	}
	if m := byName["mac.agg_body_bytes"]; m.Count == 0 || m.Mean <= 0 {
		t.Fatalf("aggregate-size histogram empty: %+v", m)
	}
}

// TestTCPMetricsSessionSeries: the chain run's per-session cwnd and SRTT
// gauges sample real transport state.
func TestTCPMetricsSessionSeries(t *testing.T) {
	rec := telemetry.NewRecorder(50 * time.Millisecond)
	res := RunTCP(TCPConfig{
		Scheme: mac.BA, Hops: 2, FileBytes: 100000, Seed: 1, Metrics: rec,
	})
	if res.ThroughputMbps <= 0 {
		t.Fatalf("run produced no throughput")
	}
	byName := map[string]telemetry.MetricSummary{}
	for _, m := range rec.Summary().Metrics {
		byName[m.Name] = m
	}
	if m := byName["tcp.session0.cwnd"]; m.Max <= 0 {
		t.Fatalf("session cwnd gauge never moved: %+v", m)
	}
	if m := byName["tcp.session0.srtt_s"]; m.Max <= 0 {
		t.Fatalf("session SRTT gauge never moved: %+v", m)
	}
}

// TestScenarioMetricsDeterministic: the workload engine's series repeat
// byte for byte as well, including the engine's own flow-churn gauges.
func TestScenarioMetricsDeterministic(t *testing.T) {
	run := func() []byte {
		rec := telemetry.NewRecorder(100 * time.Millisecond)
		cfg := ScenarioConfig{
			Scenario: testScenario(traffic.ModeOpen), Scheme: mac.BA, Metrics: rec,
		}
		res := RunScenario(cfg)
		if res.FlowsStarted == 0 {
			t.Fatalf("scenario started no flows")
		}
		var buf bytes.Buffer
		if err := rec.WriteJSONL(&buf); err != nil {
			t.Fatalf("WriteJSONL: %v", err)
		}
		return buf.Bytes()
	}
	ref := run()
	if !bytes.Equal(run(), ref) {
		t.Fatalf("scenario JSONL differs across identical runs")
	}
	var found bool
	for _, m := range func() []telemetry.MetricSummary {
		rec := telemetry.NewRecorder(100 * time.Millisecond)
		RunScenario(ScenarioConfig{Scenario: testScenario(traffic.ModeOpen), Scheme: mac.BA, Metrics: rec})
		return rec.Summary().Metrics
	}() {
		if m.Name == "scn.flows_completed" && m.Max > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("scn.flows_completed never moved")
	}
}
