// Telemetry registration: the per-layer instrument catalog every Run
// entry point shares. Gauges read always-on layer counters at sampler
// ticks, so a metrics-on run adds only the tick events themselves;
// the sole hot-path instrument is the MAC's aggregate-size histogram,
// whose nil-check fast path costs one branch when metrics are off.
//
// Determinism: gauges are registered in a fixed order, read integer
// counters or ratios of them, and sums over node slices run in slice
// order — never over map iteration. Nothing here consumes scheduler
// randomness or mutates simulation state.
package core

import (
	"fmt"
	"time"

	"aggmac/internal/medium"
	"aggmac/internal/network"
	"aggmac/internal/sim"
	"aggmac/internal/tcp"
	"aggmac/internal/telemetry"
)

// aggBodyBounds buckets aggregate body sizes (bytes). 5120 is the
// paper's §6.1 default aggregation cap, so the top finite buckets
// bracket it.
var aggBodyBounds = []float64{256, 512, 1024, 2048, 3072, 4096, 5120, 8192}

// registerRunMetrics wires the shared medium/MAC/network/TCP/sim
// instrument catalog for one run's scheduler, medium and nodes. stacks may
// be nil (UDP runs).
func registerRunMetrics(reg *telemetry.Registry, sched *sim.Scheduler, med *medium.Medium,
	nodes []*network.Node, stacks []*tcp.Stack, maxAggBytes int) {
	if reg == nil {
		return
	}
	reg.Gauge("medium.airtime_frac", func() float64 {
		now := sched.Now()
		if now <= 0 {
			return 0
		}
		return float64(med.Stats().AirtimeTotal) / float64(now)
	})
	reg.Gauge("medium.collisions", func() float64 {
		return float64(med.Stats().Collisions)
	})
	reg.Gauge("mac.queue_depth", func() float64 {
		total := 0
		for _, node := range nodes {
			b, u := node.MAC().QueueLen()
			total += b + u
		}
		return float64(total)
	})
	reg.Gauge("mac.agg_fill_ratio", func() float64 {
		var body, capacity int64
		for _, node := range nodes {
			c := node.MAC().Counters()
			body += c.BodyBytesTx
			capacity += int64(c.DataTx) * int64(maxAggBytes)
		}
		if capacity == 0 {
			return 0
		}
		return float64(body) / float64(capacity)
	})
	reg.Gauge("mac.retries", func() float64 {
		n := 0
		for _, node := range nodes {
			n += node.MAC().Counters().Retries
		}
		return float64(n)
	})
	reg.Gauge("mac.acks_tx", func() float64 {
		n := 0
		for _, node := range nodes {
			n += node.MAC().Counters().AckTx
		}
		return float64(n)
	})
	// The paper's core quantity, from both ends: broadcast-only
	// transmissions elicit no link ACK (mac.acks_suppressed), and the
	// network layer counts TCP ACKs it routed through the broadcast
	// queue instead of as unicast data (net.tcp_acks_bcast).
	reg.Gauge("mac.acks_suppressed", func() float64 {
		n := 0
		for _, node := range nodes {
			n += node.MAC().Counters().BroadcastOnly
		}
		return float64(n)
	})
	reg.Gauge("net.tcp_acks_bcast", func() float64 {
		n := 0
		for _, node := range nodes {
			n += node.Stats().AcksBcast
		}
		return float64(n)
	})
	if stacks != nil {
		reg.Gauge("tcp.open_conns", func() float64 {
			total := 0
			for _, st := range stacks {
				n, _ := st.OpenConns()
				total += n
			}
			return float64(total)
		})
		reg.Gauge("tcp.cwnd_bytes", func() float64 {
			total := 0
			for _, st := range stacks {
				_, cw := st.OpenConns()
				total += cw
			}
			return float64(total)
		})
		reg.Gauge("tcp.rto_events", func() float64 {
			n := 0
			for _, st := range stacks {
				n += st.Totals().Timeouts
			}
			return float64(n)
		})
		reg.Gauge("tcp.retransmits", func() float64 {
			n := 0
			for _, st := range stacks {
				n += st.Totals().Retransmits
			}
			return float64(n)
		})
	}
	reg.Gauge("sim.events_run", func() float64 {
		return float64(sched.EventsRun())
	})
	reg.Gauge("sim.pending_events", func() float64 {
		_, _, pending := sched.PoolStats()
		return float64(pending)
	})
	reg.Gauge("sim.pool_slots", func() float64 {
		slots, _, _ := sched.PoolStats()
		return float64(slots)
	})
	h := reg.Histogram("mac.agg_body_bytes", aggBodyBounds)
	for _, node := range nodes {
		node.MAC().SetAggSizeHist(h)
	}
}

// registerFlowMetrics adds the per-flow stall gauges of a mesh run: the
// simulated time since each started, unfinished flow last made payload
// progress.
func registerFlowMetrics(reg *telemetry.Registry, sched *sim.Scheduler, flows []*meshFlow) {
	if reg == nil {
		return
	}
	for i, f := range flows {
		f := f
		reg.Gauge(fmt.Sprintf("mesh.flow%d.stall_s", i), func() float64 {
			if !f.started || f.done || f.killed {
				return 0
			}
			return time.Duration(sched.Now() - f.lastProgress).Seconds()
		})
	}
}
