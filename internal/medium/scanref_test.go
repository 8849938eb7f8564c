package medium

import (
	"testing"
	"time"

	"aggmac/internal/frame"
)

// scanRef is the channel reference the indexed hot paths are pinned
// against: the seed's launch and finish, which scan every radio and every
// frame on the air and ask an independent shadowTable who hears whom,
// instead of walking neighbor lists and the in-flight index. It drives a
// real Medium's pooled transmissions, half-duplex state, carrier refcounts
// and delivery (getTx/deliver/putTx), so the two paths make the same RNG
// draws in the same order and any divergence is in audience capture,
// collision marking or carrier accounting.
//
// Its time bases are the medium's contract: the audience is captured at
// launch and used for energy detect, delivery and carrier release;
// collision marking asks the shadow's connectivity and SNR as they are at
// the new frame's launch. Link changes in a reference run go straight to
// the link table and the shadow (see refLinks): the medium's in-flight
// index plays no part here, so it needs no repair.
type scanRef struct {
	t      *testing.T
	m      *Medium
	st     *shadowTable
	active []*refTx
	// churnMarks counts marking decisions at an audience member where the
	// links as they are now differ from the links at the in-flight frame's
	// launch (a mark made or skipped, or made at another SNR, because a
	// link changed under the frame).
	churnMarks int
}

// refTx is the reference's view of one frame on the air: collision marks
// by node id, and the links from its source as they were at launch.
type refTx struct {
	tx            *transmission
	heardAtLaunch []bool
	snrAtLaunch   []float64
	collided      []bool
	interfSNR     []float64
}

func (x *refTx) mark(id int, snrdB float64) {
	if !x.collided[id] || snrdB > x.interfSNR[id] {
		x.collided[id] = true
		x.interfSNR[id] = snrdB
	}
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

// launch captures the audience by scanning all N node ids, marks
// collisions against every frame on the air, and raises carrier at the
// audience.
func (r *scanRef) launch(t *transmission) {
	m := r.m
	n := len(m.radios)
	m.stats.AirtimeTotal += t.end - t.start
	src := int(t.src)
	x := &refTx{
		tx:            t,
		heardAtLaunch: make([]bool, n),
		snrAtLaunch:   make([]float64, n),
		collided:      make([]bool, n),
		interfSNR:     make([]float64, n),
	}
	for id := 0; id < n; id++ {
		x.heardAtLaunch[id] = r.hears(src, id)
		x.snrAtLaunch[id] = r.st.snr[src][id]
		if x.heardAtLaunch[id] && m.radios[id] != nil {
			t.audience = append(t.audience, NodeID(id))
		}
	}
	for _, other := range r.active {
		if other.tx.end <= t.start {
			continue
		}
		osrc := int(other.tx.src)
		// The seed deafens every frame on the air at the new transmitter;
		// delivery observes the mark only where osrc's launch-time audience
		// holds src.
		other.mark(src, 1e9)
		for id := 0; id < n; id++ {
			hearsNow := r.hears(osrc, id)
			if r.hears(src, id) && m.radios[id] != nil &&
				(hearsNow != other.heardAtLaunch[id] || hearsNow && r.st.snr[osrc][id] != other.snrAtLaunch[id]) {
				r.churnMarks++
			}
			if r.hears(src, id) && hearsNow {
				x.mark(id, r.st.snr[osrc][id])
				other.mark(id, r.st.snr[src][id])
			}
		}
	}
	r.active = append(r.active, x)
	m.txOf[t.src] = append(m.txOf[t.src], t)
	for _, id := range t.audience {
		m.busy[id]++
		if m.busy[id] == 1 {
			m.radios[id].CarrierBusy()
		}
	}
	m.sched.After(t.end-t.start, "medium:txEnd", func() { r.finish(x) })
}

// finish retires the frame, delivers it to its launch-time audience with
// the reference's collision marks, and releases carrier there.
func (r *scanRef) finish(x *refTx) {
	m, t := r.m, x.tx
	for i, a := range r.active {
		if a == x {
			r.active = append(r.active[:i], r.active[i+1:]...)
			break
		}
	}
	own := m.txOf[t.src]
	for i, o := range own {
		if o == t {
			m.txOf[t.src] = append(own[:i], own[i+1:]...)
			break
		}
	}
	for i, id := range t.audience {
		t.collided = append(t.collided, x.collided[id])
		t.interfSNR = append(t.interfSNR, x.interfSNR[id])
		// deliver reads the production table's SNR; hold it to the shadow.
		if got, want := m.SNR(t.src, id), r.st.snr[t.src][id]; got != want {
			r.t.Fatalf("SNR(%d,%d) = %v at delivery, shadow %v", t.src, id, got, want)
		}
		m.deliver(t, i)
	}
	for _, id := range t.audience {
		m.busy[id]--
		if m.busy[id] == 0 {
			m.radios[id].CarrierIdle()
		}
	}
	m.putTx(t)
}

// refLinks applies link changes straight to a reference run's link table,
// bypassing the medium's in-flight index repair.
type refLinks struct{ tbl *LinkTable }

func (l refLinks) SetConnected(a, b NodeID, on bool) {
	l.tbl.setConnectedDirected(a, b, on)
	l.tbl.setConnectedDirected(b, a, on)
}

func (l refLinks) SetConnectedDirected(a, b NodeID, on bool) { l.tbl.setConnectedDirected(a, b, on) }

func (l refLinks) SetSNR(a, b NodeID, v float64) {
	l.tbl.setSNRDirected(a, b, v)
	l.tbl.setSNRDirected(b, a, v)
}
