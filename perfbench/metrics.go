package main

import (
	"math"

	"aggmac/internal/core"
	"aggmac/internal/telemetry"
)

// metricDef names one reported metric; BENCHMARK.json lists the same
// names and units.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the untraced run's metrics.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"ns_per_event", "ns", "lower"},
	{"simsec_per_s", "1/s", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// aggregation says how a simulated count combines over the traced
// simulations.
type aggregation int

const (
	aggSum aggregation = iota
	aggMax
	aggMean
)

// countDef is one simulated count: a deterministic property of the
// inputs that no speed change may move.
type countDef struct {
	metricDef
	agg aggregation
	get func(r runRecord) float64
}

// last and peak read a telemetry series of the run's summary.
func last(name string) func(runRecord) float64 {
	return func(r runRecord) float64 { return summaryOf(r.summary, name).Last }
}

func peak(name string) func(runRecord) float64 {
	return func(r runRecord) float64 { return summaryOf(r.summary, name).Max }
}

func summaryOf(s *telemetry.Summary, name string) telemetry.MetricSummary {
	if s != nil {
		for _, m := range s.Metrics {
			if m.Name == name {
				return m
			}
		}
	}
	return telemetry.MetricSummary{}
}

func nodeSum(f func(core.NodeReport) int) func(runRecord) float64 {
	return func(r runRecord) float64 {
		n := 0
		for _, node := range r.nodes {
			n += f(node)
		}
		return float64(n)
	}
}

// simulatedCounts come from the runs' results and telemetry summaries.
// sim.events_per_simsec, computed from event and simulated-time totals,
// precedes them in the report.
var simulatedCounts = []countDef{
	{metricDef{"sim.pending_max", "count", "lower"}, aggMax, peak("sim.pending_events")},
	{metricDef{"sim.pool_slots", "count", "lower"}, aggMax, peak("sim.pool_slots")},
	{metricDef{"medium.collisions", "count", "lower"}, aggSum, last("medium.collisions")},
	{metricDef{"medium.airtime_frac", "ratio", "higher"}, aggMean, last("medium.airtime_frac")},
	{metricDef{"mac.agg_fill_ratio", "ratio", "higher"}, aggMean, last("mac.agg_fill_ratio")},
	{metricDef{"mac.retries", "count", "lower"}, aggSum, nodeSum(func(n core.NodeReport) int { return n.MAC.Retries })},
	{metricDef{"mac.acks_suppressed", "count", "higher"}, aggSum, nodeSum(func(n core.NodeReport) int { return n.MAC.BroadcastOnly })},
	{metricDef{"mac.queue_depth_max", "count", "lower"}, aggMax, peak("mac.queue_depth")},
	{metricDef{"net.forwarded", "count", "higher"}, aggSum, nodeSum(func(n core.NodeReport) int { return n.Net.Forwarded })},
	{metricDef{"net.tcp_acks_bcast", "count", "higher"}, aggSum, nodeSum(func(n core.NodeReport) int { return n.Net.AcksBcast })},
	{metricDef{"net.queue_full", "count", "lower"}, aggSum, nodeSum(func(n core.NodeReport) int { return n.Net.QueueFull })},
	{metricDef{"tcp.retransmits", "count", "lower"}, aggSum, last("tcp.retransmits")},
	{metricDef{"tcp.rto_events", "count", "lower"}, aggSum, last("tcp.rto_events")},
	{metricDef{"tcp.open_conns_max", "count", "higher"}, aggMax, peak("tcp.open_conns")},
	{metricDef{"scn.flows_started", "count", "higher"}, aggSum, func(r runRecord) float64 { return float64(r.flows) }},
	{metricDef{"scn.flows_completed", "count", "higher"}, aggSum, func(r runRecord) float64 { return float64(r.done) }},
}

// perLayer lists the traced run's metrics in report order.
func perLayer() []metricDef {
	var out []metricDef
	for _, l := range layers {
		out = append(out, metricDef{l + ".self_ns_per_event", "ns", "lower"})
	}
	for _, l := range layers {
		out = append(out, metricDef{l + ".alloc_bytes_per_event", "B", "lower"})
	}
	for _, l := range layers {
		out = append(out, metricDef{l + ".allocs_per_event", "count", "lower"})
	}
	out = append(out, metricDef{"sim.events_per_simsec", "1/s", "lower"})
	for _, c := range simulatedCounts {
		out = append(out, c.metricDef)
	}
	return append(out, metricDef{"trace.overhead_s", "s", "lower"})
}

// simCounts combines the simulated counts over the traced runs.
func simCounts(recs []runRecord, events uint64, simsec float64) map[string]float64 {
	m := map[string]float64{"sim.events_per_simsec": float64(events) / simsec}
	for _, c := range simulatedCounts {
		v := 0.0
		for _, r := range recs {
			x := c.get(r)
			switch c.agg {
			case aggSum, aggMean:
				v += x
			case aggMax:
				v = math.Max(v, x)
			}
		}
		if c.agg == aggMean && len(recs) > 0 {
			v /= float64(len(recs))
		}
		m[c.name] = v
	}
	return m
}
