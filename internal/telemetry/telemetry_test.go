package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"aggmac/internal/sim"
)

// A nil Registry must hand out nil handles, and every operation on them
// must be a safe no-op: that is the entire metrics-off fast path.
func TestNilSafety(t *testing.T) {
	var reg *Registry
	c := reg.Counter("c")
	if c != nil {
		t.Fatalf("nil registry returned non-nil counter")
	}
	c.Add(3)
	if got := c.Value(); got != 0 {
		t.Fatalf("nil counter Value = %d, want 0", got)
	}
	reg.Gauge("g", func() float64 { return 1 })
	h := reg.Histogram("h", []float64{1, 2})
	if h != nil {
		t.Fatalf("nil registry returned non-nil histogram")
	}
	h.Observe(1.5)
	reg.Start(sim.NewScheduler(1), time.Millisecond, time.Second)

	var rec *Recorder
	if rec.Summary() != nil {
		t.Fatalf("nil recorder Summary != nil")
	}
	if err := rec.WriteJSONL(&bytes.Buffer{}); err == nil {
		t.Fatalf("nil recorder WriteJSONL succeeded")
	}
}

func TestCounterAndGaugeSampling(t *testing.T) {
	sched := sim.NewScheduler(1)
	rec := NewRecorder(10 * time.Millisecond)
	reg := rec.Registry(0)
	c := reg.Counter("events")
	g := 0.0
	reg.Gauge("level", func() float64 { return g })

	// Bump the counter and gauge between ticks via scheduled events.
	for i := 1; i <= 5; i++ {
		i := i
		sched.At(sim.Time(i)*sim.Time(10*time.Millisecond)-1, "bump", func() {
			c.Add(uint64(i))
			g = float64(i)
		})
	}
	reg.Start(sched, rec.Interval(), 50*time.Millisecond)
	sched.RunUntil(50 * time.Millisecond)

	if got := reg.Ticks(); got != 5 {
		t.Fatalf("ticks = %d, want 5", got)
	}
	s := rec.Summary()
	byName := map[string]MetricSummary{}
	for _, m := range s.Metrics {
		byName[m.Name] = m
	}
	// Counter samples are cumulative: 1, 3, 6, 10, 15.
	if m := byName["events"]; m.Last != 15 || m.Min != 1 || m.Max != 15 {
		t.Fatalf("counter summary = %+v, want last=15 min=1 max=15", m)
	}
	if m := byName["level"]; m.Last != 5 || m.Min != 1 || m.Max != 5 || m.Mean != 3 {
		t.Fatalf("gauge summary = %+v, want last=5 min=1 max=5 mean=3", m)
	}
}

func TestHistogramBuckets(t *testing.T) {
	rec := NewRecorder(0)
	if rec.Interval() != DefaultInterval {
		t.Fatalf("interval = %v, want default %v", rec.Interval(), DefaultInterval)
	}
	h := rec.Registry(0).Histogram("sizes", []float64{10, 20, 30})
	for _, v := range []float64{5, 10, 15, 25, 100} {
		h.Observe(v)
	}
	// Bounds are upper-inclusive: 5,10 land in bucket 0; 15 in bucket 1;
	// 25 in bucket 2; 100 overflows.
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if h.buckets[i] != w {
			t.Fatalf("bucket[%d] = %d, want %d (buckets %v)", i, h.buckets[i], w, h.buckets)
		}
	}
	if h.count != 5 || h.sum != 155 {
		t.Fatalf("count=%d sum=%v, want 5, 155", h.count, h.sum)
	}
}

func TestHistogramObserveDoesNotAllocate(t *testing.T) {
	h := NewRecorder(0).Registry(0).Histogram("h", []float64{1, 2, 4, 8})
	if n := testing.AllocsPerRun(1000, func() { h.Observe(3) }); n != 0 {
		t.Fatalf("Observe allocates %v per op, want 0", n)
	}
	var nilH *Histogram
	if n := testing.AllocsPerRun(1000, func() { nilH.Observe(3) }); n != 0 {
		t.Fatalf("nil Observe allocates %v per op, want 0", n)
	}
}

func TestRegistryDedupAndGaps(t *testing.T) {
	rec := NewRecorder(time.Millisecond)
	reg := rec.Registry(2) // skipping registries 0, 1 must not panic
	if rec.Registry(2) != reg {
		t.Fatalf("Registry(2) not stable across calls")
	}
	c1 := reg.Counter("dup")
	c2 := reg.Counter("dup")
	if c1 != c2 {
		t.Fatalf("duplicate counter registration returned distinct handles")
	}
}

// sampleRun drives one deterministic run with every metric kind and
// returns the JSONL bytes.
func sampleRun(t *testing.T) []byte {
	t.Helper()
	sched := sim.NewScheduler(7)
	rec := NewRecorder(5 * time.Millisecond)
	reg := rec.Registry(0)
	c := reg.Counter("n")
	reg.Gauge("g", func() float64 { return float64(sched.Now()) })
	h := reg.Histogram("h", []float64{100, 200})
	sched.After(time.Millisecond, "work", func() {
		c.Add(2)
		h.Observe(150)
		h.Observe(999)
	})
	reg.Start(sched, rec.Interval(), 20*time.Millisecond)
	sched.RunUntil(20 * time.Millisecond)
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	return buf.Bytes()
}

func TestWriteJSONLDeterministic(t *testing.T) {
	a := sampleRun(t)
	b := sampleRun(t)
	if !bytes.Equal(a, b) {
		t.Fatalf("JSONL differs across identical runs:\n%s\nvs\n%s", a, b)
	}
}

func TestWriteJSONLShape(t *testing.T) {
	out := sampleRun(t)
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	// header + ticks + 3 series + summary
	if len(lines) != 6 {
		t.Fatalf("got %d lines, want 6:\n%s", len(lines), out)
	}
	var hdr struct {
		Telemetry  int   `json:"telemetry"`
		IntervalNS int64 `json:"interval_ns"`
		Shards     int   `json:"shards"`
		Series     int   `json:"series"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
		t.Fatalf("header: %v", err)
	}
	if hdr.Telemetry != SchemaVersion || hdr.Shards != 1 || hdr.Series != 3 ||
		hdr.IntervalNS != int64(5*time.Millisecond) {
		t.Fatalf("header = %+v", hdr)
	}
	kinds := map[string]int{}
	for _, line := range lines[1:] {
		var generic struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal([]byte(line), &generic); err != nil {
			t.Fatalf("bad line %q: %v", line, err)
		}
		kinds[generic.Kind]++
	}
	if kinds["ticks"] != 1 || kinds["series"] != 3 || kinds["summary"] != 1 {
		t.Fatalf("line kinds = %v", kinds)
	}
}

func TestSummaryHistogram(t *testing.T) {
	rec := NewRecorder(time.Millisecond)
	h := rec.Registry(0).Histogram("h", []float64{10})
	h.Observe(4)
	h.Observe(6)
	s := rec.Summary()
	if len(s.Metrics) != 1 {
		t.Fatalf("metrics = %+v", s.Metrics)
	}
	m := s.Metrics[0]
	if m.Count != 2 || m.Sum != 10 || m.Mean != 5 || m.Last != 5 {
		t.Fatalf("hist summary = %+v, want count=2 sum=10 mean=5 last=5", m)
	}
}
