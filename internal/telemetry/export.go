// JSONL export and the per-run summary embedded in -json output.
//
// The export is versioned and line-oriented so downstream tooling can
// stream it: a header line, then per registry one tick-times line
// followed by one line per series in registration order, and a final
// summary line. The "shards"/"shard" fields count and index registries;
// every run registers one, so they read 1 and 0. Every value derives from
// simulated time or simulation state, so the bytes are identical across
// repeats and GOMAXPROCS settings.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
)

// SchemaVersion identifies the JSONL export format.
const SchemaVersion = 1

type headerLine struct {
	Telemetry  int   `json:"telemetry"`
	IntervalNS int64 `json:"interval_ns"`
	Shards     int   `json:"shards"`
	Series     int   `json:"series"`
}

type ticksLine struct {
	Kind  string  `json:"kind"`
	Shard int     `json:"shard"`
	TNS   []int64 `json:"t_ns"`
}

type seriesLine struct {
	Kind   string     `json:"kind"`
	Shard  int        `json:"shard"`
	Name   string     `json:"name"`
	Type   string     `json:"type"`
	V      []float64  `json:"v,omitempty"`
	Bounds []float64  `json:"bounds,omitempty"`
	Count  []uint64   `json:"count,omitempty"`
	Sum    []float64  `json:"sum,omitempty"`
	Bucket [][]uint64 `json:"buckets,omitempty"`
}

type summaryLine struct {
	Kind string `json:"kind"`
	*Summary
}

// WriteJSONL writes the full export: header, per-registry tick times and
// series lines, and a trailing summary line.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	if r == nil {
		return fmt.Errorf("telemetry: nil Recorder")
	}
	enc := json.NewEncoder(w)
	series := 0
	for _, reg := range r.regs {
		series += len(reg.metrics)
	}
	if err := enc.Encode(headerLine{
		Telemetry:  SchemaVersion,
		IntervalNS: int64(r.interval),
		Shards:     len(r.regs),
		Series:     series,
	}); err != nil {
		return err
	}
	for _, reg := range r.regs {
		tns := make([]int64, len(reg.times))
		for i, t := range reg.times {
			tns[i] = int64(t)
		}
		if err := enc.Encode(ticksLine{Kind: "ticks", Shard: reg.shard, TNS: tns}); err != nil {
			return err
		}
		for _, m := range reg.metrics {
			line := seriesLine{
				Kind:  "series",
				Shard: reg.shard,
				Name:  m.name,
				Type:  m.kind.String(),
			}
			if m.kind == kindHist {
				line.Bounds = m.hist.bounds
				line.Count = make([]uint64, len(m.ticks))
				line.Sum = make([]float64, len(m.ticks))
				line.Bucket = make([][]uint64, len(m.ticks))
				for i, t := range m.ticks {
					line.Count[i] = t.count
					line.Sum[i] = t.sum
					line.Bucket[i] = t.buckets
				}
			} else {
				line.V = m.samples
			}
			if err := enc.Encode(line); err != nil {
				return err
			}
		}
	}
	return enc.Encode(summaryLine{Kind: "summary", Summary: r.Summary()})
}

// Summary is the per-run digest embedded in -json output: one row per
// series with its last/min/max/mean over the sampled ticks. Histogram
// rows report cumulative observation count and sum (mean = sum/count)
// instead of min/max.
type Summary struct {
	Version    int             `json:"version"`
	IntervalNS int64           `json:"interval_ns"`
	Ticks      int             `json:"ticks"`
	Metrics    []MetricSummary `json:"metrics"`
}

// MetricSummary digests one series.
type MetricSummary struct {
	Name  string  `json:"name"`
	Shard int     `json:"shard"`
	Type  string  `json:"type"`
	Last  float64 `json:"last"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
	Mean  float64 `json:"mean,omitempty"`
	Count uint64  `json:"count,omitempty"`
	Sum   float64 `json:"sum,omitempty"`
}

// Summary digests every registered series. Deterministic: series order
// is registration order and all arithmetic runs in slice order.
func (r *Recorder) Summary() *Summary {
	if r == nil {
		return nil
	}
	s := &Summary{Version: SchemaVersion, IntervalNS: int64(r.interval)}
	for _, reg := range r.regs {
		if len(reg.times) > s.Ticks {
			s.Ticks = len(reg.times)
		}
		for _, m := range reg.metrics {
			ms := MetricSummary{Name: m.name, Shard: reg.shard, Type: m.kind.String()}
			if m.kind == kindHist {
				ms.Count = m.hist.count
				ms.Sum = m.hist.sum
				if ms.Count > 0 {
					ms.Mean = ms.Sum / float64(ms.Count)
					ms.Last = ms.Mean
				}
			} else if n := len(m.samples); n > 0 {
				ms.Last = m.samples[n-1]
				ms.Min, ms.Max = m.samples[0], m.samples[0]
				sum := 0.0
				for _, v := range m.samples {
					if v < ms.Min {
						ms.Min = v
					}
					if v > ms.Max {
						ms.Max = v
					}
					sum += v
				}
				ms.Mean = sum / float64(n)
			}
			s.Metrics = append(s.Metrics, ms)
		}
	}
	return s
}
