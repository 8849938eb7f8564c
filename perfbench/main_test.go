package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"strconv"
	"testing"
)

func TestMain(m *testing.M) {
	// The traced run re-executes this binary for its allocation pass.
	if job := os.Getenv(childEnv); job != "" {
		os.Exit(childMain(job))
	}
	os.Exit(m.Run())
}

var workloadNames = []string{"paper", "mesh-1600", "web-churn"}

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.name)
	}
	return out
}

// TestCatalogMatchesBenchmarkJSON pins the metric names, units and
// directions the code emits to the ones BENCHMARK.json declares.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind      string
		got, want []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer()}} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("BENCHMARK.json %s = %v, code emits %v", c.kind, c.got, c.want)
		}
	}
	var wl []string
	for _, w := range spec.Workloads {
		wl = append(wl, w.Name)
	}
	if !slices.Equal(wl, workloadNames) {
		t.Errorf("BENCHMARK.json workloads = %v, want %v", wl, workloadNames)
	}
}

func (d *metricDef) UnmarshalJSON(b []byte) error {
	var v struct{ Name, Unit, Better string }
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*d = metricDef{v.Name, v.Unit, v.Better}
	return nil
}

func checkMetrics(t *testing.T, got map[string]float64, defs []metricDef) {
	t.Helper()
	for _, d := range defs {
		v, ok := got[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("metric %s = %v, %v", d.name, v, ok)
		}
	}
	if len(got) != len(defs) {
		t.Errorf("%d metrics emitted, want %d", len(got), len(defs))
	}
}

// TestToyWorkloads runs every workload at toy size through the untraced
// and the traced run, checking that each emits all its metrics, that
// every call passes its output checks, and that the layers' self-time
// shares account for the whole CPU profile.
func TestToyWorkloads(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, err := lookup(name, true)
			if err != nil {
				t.Fatal(err)
			}
			b := newBench(w, 1, nil)
			m, err := b.measure(0)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, m, endToEnd)
			for _, d := range endToEnd {
				if m[d.name] <= 0 {
					t.Errorf("%s = %v, want > 0", d.name, m[d.name])
				}
			}
			tb := newBench(w, 1, nil)
			m, err = tb.traced(true)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, m, perLayer())
			sum := 0.0
			for _, s := range layerShares(tb.cpuNS) {
				sum += s
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("layer shares sum to %v, want 1 (cpu ns by layer %v)", sum, tb.cpuNS)
			}
			if tb.cpuNS["runtime"]+tb.cpuNS["other"] == total(tb.cpuNS) {
				t.Errorf("no CPU time attributed to a named layer: %v", tb.cpuNS)
			}
			for _, x := range []*bench{b, tb} {
				if x.failed != 0 || x.attempted == 0 {
					t.Errorf("%d of %d calls failed: %v", x.failed, x.attempted, x.problems)
				}
			}
			if len(tb.tr.spans) == 0 {
				t.Error("traced run recorded no spans")
			}
		})
	}
}

// TestWrongDigestFails checks that a recorded digest the output does not
// match turns every pass on that input into a failed call.
func TestWrongDigestFails(t *testing.T) {
	w, err := lookup("mesh-1600", true)
	if err != nil {
		t.Fatal(err)
	}
	seed := inputSeeds(1, w.inputs)[1]
	b := newBench(w, 1, map[string]digest{strconv.FormatInt(seed, 10): {Events: 1, SHA256: "0"}})
	if _, err := b.measure(0); err == nil {
		t.Fatal("measure succeeded with every pass on one input failing")
	}
	if b.failed == 0 {
		t.Fatalf("no failed calls; problems %v", b.problems)
	}
}

func TestInputSeeds(t *testing.T) {
	a, b := inputSeeds(1, 8), inputSeeds(2, 8)
	if !slices.Equal(a, inputSeeds(1, 8)) {
		t.Error("same seed gave different inputs")
	}
	for _, s := range a {
		if s <= 0 || slices.Contains(b, s) {
			t.Errorf("input seed %d is not positive or is shared by seeds 1 and 2", s)
		}
	}
}

func total(m map[string]int64) int64 {
	var n int64
	for _, v := range m {
		n += v
	}
	return n
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"aggmac/internal/medium.(*Medium).enter":       "medium",
		"aggmac/internal/sim.(*Scheduler).Step":        "sim",
		"aggmac/internal/core.RunMeshTCP.func3":        "core",
		"aggmac/internal/trace.AppendFormat":           "other",
		"runtime.mallocgc":                             "",
		"aggmac/perfbench.call":                        "",
		"aggmac/internal/telemetry.(*Registry).sample": "telemetry",
	} {
		got, ok := layerOf(fn)
		if got != want || ok != (want != "") {
			t.Errorf("layerOf(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
}
