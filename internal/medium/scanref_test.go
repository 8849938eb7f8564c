package medium

import (
	"testing"
	"time"

	"aggmac/internal/frame"
)

// scanRef is the channel reference the neighbor-indexed hot paths are
// pinned against: the seed's launch and finish, which scan every radio and
// ask an independent shadowTable who hears whom instead of walking the
// neighbor lists. It drives a real Medium's pooled transmissions, active
// list, carrier refcounts and delivery (getTx/deliver/putTx), so the two
// paths make the same RNG draws in the same order and any divergence is in
// audience capture, collision marking or carrier accounting.
type scanRef struct {
	t  *testing.T
	m  *Medium
	st *shadowTable
}

func (r *scanRef) hears(from, to int) bool { return from != to && r.st.connected[from][to] }

// transmitControl mirrors Medium.TransmitControl up to the launch.
func (r *scanRef) transmitControl(src NodeID, c frame.Control) time.Duration {
	m := r.m
	d := m.ControlAirtime(&c)
	t := m.getTx()
	t.src, t.start, t.end = src, m.sched.Now(), m.sched.Now()+d
	t.isControl, t.control = true, c
	m.stats.ControlTx++
	r.launch(t)
	return d
}

// transmitAggregate mirrors Medium.TransmitAggregate up to the launch.
func (r *scanRef) transmitAggregate(src NodeID, agg *frame.Aggregate) time.Duration {
	m := r.m
	d := m.AggregateAirtime(agg)
	t := m.getTx()
	t.src, t.start, t.end = src, m.sched.Now(), m.sched.Now()+d
	t.isControl = false
	t.hdr = agg.Header()
	t.body, t.spans = agg.AppendMarshal(make([]byte, 0, agg.Bytes()), t.spans[:0])
	m.stats.AggregateTx++
	r.launch(t)
	return d
}

// launch marks collisions against every active transmission and raises
// carrier at every attached radio in range, scanning all N node ids.
func (r *scanRef) launch(t *transmission) {
	m := r.m
	m.stats.AirtimeTotal += t.end - t.start
	src := int(t.src)
	for _, other := range m.active {
		if other.end <= t.start {
			continue
		}
		other.addInterf(t.src, 1e9)
		for id := range m.radios {
			if r.hears(src, id) && r.hears(int(other.src), id) {
				t.addInterf(NodeID(id), r.st.snr[other.src][id])
				other.addInterf(NodeID(id), r.st.snr[src][id])
			}
		}
	}
	t.activeIdx = len(m.active)
	m.active = append(m.active, t)
	m.txBusy[t.src]++
	for id := range m.radios {
		if m.radios[id] == nil || !r.hears(src, id) {
			continue
		}
		m.busy[id]++
		if m.busy[id] == 1 {
			m.radios[id].CarrierBusy()
		}
	}
	m.sched.After(t.end-t.start, "medium:txEnd", func() { r.finish(t) })
}

// finish retires t, delivers it to every attached radio in range and
// releases carrier there, again scanning all N node ids.
func (r *scanRef) finish(t *transmission) {
	m := r.m
	m.txBusy[t.src]--
	last := len(m.active) - 1
	if i := t.activeIdx; i != last {
		m.active[i] = m.active[last]
		m.active[i].activeIdx = i
	}
	m.active[last] = nil
	m.active = m.active[:last]

	src := int(t.src)
	for id := range m.radios {
		if m.radios[id] == nil || !r.hears(src, id) {
			continue
		}
		// deliver reads the production table's SNR; hold it to the shadow.
		if got, want := m.SNR(t.src, NodeID(id)), r.st.snr[src][id]; got != want {
			r.t.Fatalf("SNR(%d,%d) = %v at delivery, shadow %v", src, id, got, want)
		}
		m.deliver(t, NodeID(id))
	}
	for id := range m.radios {
		if m.radios[id] == nil || !r.hears(src, id) {
			continue
		}
		m.busy[id]--
		if m.busy[id] == 0 {
			m.radios[id].CarrierIdle()
		}
	}
	m.putTx(t)
}
