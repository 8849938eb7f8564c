package medium

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"aggmac/internal/frame"
	"aggmac/internal/phy"
	"aggmac/internal/sim"
)

// checkIndexAgainstMatrix asserts, for every source, that the incremental
// neighbor index equals what a fresh scan of every directed pair's
// connectivity produces: exactly the connected non-self destinations,
// ascending.
func checkIndexAgainstMatrix(t *testing.T, m *Medium, step int) {
	t.Helper()
	n := len(m.radios)
	for src := 0; src < n; src++ {
		var want []NodeID
		for dst := 0; dst < n; dst++ {
			if m.Connected(NodeID(src), NodeID(dst)) {
				want = append(want, NodeID(dst))
			}
		}
		got := m.Neighbors(NodeID(src))
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(append([]NodeID(nil), got...), want) {
			t.Fatalf("step %d: Neighbors(%d) = %v, matrix oracle %v", step, src, got, want)
		}
		if m.Degree(NodeID(src)) != len(want) {
			t.Fatalf("step %d: Degree(%d) = %d, want %d", step, src, m.Degree(NodeID(src)), len(want))
		}
	}
}

// TestNeighborIndexMatchesMatrixOracle churns the connectivity setters —
// bidirectional cuts/restores, asymmetric directed edits, SNR overrides,
// self-link no-ops, redundant repeats — and checks the neighbor index
// against a full scan of Connected after every few steps.
func TestNeighborIndexMatchesMatrixOracle(t *testing.T) {
	for _, tc := range []struct {
		name  string
		n     int
		start func(s *sim.Scheduler, n int) *Medium
	}{
		{"from-full", 17, func(s *sim.Scheduler, n int) *Medium {
			return New(s, phy.DefaultParams(), n)
		}},
		{"from-empty", 17, func(s *sim.Scheduler, n int) *Medium {
			return NewUnconnected(s, phy.DefaultParams(), n)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.NewScheduler(7)
			m := tc.start(s, tc.n)
			checkIndexAgainstMatrix(t, m, -1)
			rng := rand.New(rand.NewSource(42))
			for i := 0; i < 4000; i++ {
				a := NodeID(rng.Intn(tc.n))
				b := NodeID(rng.Intn(tc.n))
				on := rng.Intn(2) == 0
				switch rng.Intn(6) {
				case 0:
					m.SetConnected(a, b, on)
				case 1:
					m.SetConnectedDirected(a, b, on) // asymmetric link
				case 2:
					m.SetSNR(a, b, float64(rng.Intn(30)))
				case 3:
					m.SetConnected(a, a, on) // self-link: must be a no-op
				case 4:
					// Redundant repeat: setting the current state again.
					m.SetConnectedDirected(a, b, m.Connected(a, b))
				case 5:
					m.SetConnectedDirected(a, b, on)
					m.SetSNR(a, b, 3+float64(rng.Intn(25)))
				}
				if i%101 == 0 {
					checkIndexAgainstMatrix(t, m, i)
				}
			}
			checkIndexAgainstMatrix(t, m, 4000)
		})
	}
}

// mobilityTrace generates the churn pattern a mobility tick produces: n
// nodes random-walk inside a square area and, after every move, the trace
// reconciles the medium's connectivity with the distance rule exactly the
// way topology.UpdateLinks does — cuts for pairs that left range, raises
// plus an SNR refresh for pairs in range — using only the incremental
// SetConnected/SetSNR paths.
type mobilityTrace struct {
	rng      *rand.Rand
	x, y     []float64
	side     float64
	rangeLim float64
}

func newMobilityTrace(n int, side, rangeLim float64, seed int64) *mobilityTrace {
	tr := &mobilityTrace{
		rng:      rand.New(rand.NewSource(seed)),
		x:        make([]float64, n),
		y:        make([]float64, n),
		side:     side,
		rangeLim: rangeLim,
	}
	for i := 0; i < n; i++ {
		tr.x[i] = tr.rng.Float64() * side
		tr.y[i] = tr.rng.Float64() * side
	}
	return tr
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// step random-walks every node and pushes the resulting link deltas into
// the medium.
func (tr *mobilityTrace) step(m *Medium, stride float64) {
	for i := range tr.x {
		tr.x[i] = clamp(tr.x[i]+(tr.rng.Float64()*2-1)*stride, 0, tr.side)
		tr.y[i] = clamp(tr.y[i]+(tr.rng.Float64()*2-1)*stride, 0, tr.side)
	}
	n := len(tr.x)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			dx, dy := tr.x[a]-tr.x[b], tr.y[a]-tr.y[b]
			inRange := dx*dx+dy*dy <= tr.rangeLim*tr.rangeLim
			connected := m.Connected(NodeID(a), NodeID(b))
			switch {
			case inRange && !connected:
				m.SetConnected(NodeID(a), NodeID(b), true)
				m.SetSNR(NodeID(a), NodeID(b), 5+tr.rng.Float64()*20)
			case inRange && connected:
				m.SetSNR(NodeID(a), NodeID(b), 5+tr.rng.Float64()*20)
			case !inRange && connected:
				m.SetConnected(NodeID(a), NodeID(b), false)
			}
		}
	}
}

// inRangeOracle recomputes the expected adjacency from scratch.
func (tr *mobilityTrace) inRangeOracle(a, b int) bool {
	dx, dy := tr.x[a]-tr.x[b], tr.y[a]-tr.y[b]
	return a != b && dx*dx+dy*dy <= tr.rangeLim*tr.rangeLim
}

// TestNeighborIndexUnderMobilityTrace drives sustained mobility-style
// churn — every step moves all nodes and reconciles every crossed range
// boundary — and checks after each step that (a) the incremental neighbor
// index still equals a fresh scan of Connected, with every inline SNR copy
// equal to its slot, and (b) Connected itself matches the positional
// ground truth the trace maintains.
func TestNeighborIndexUnderMobilityTrace(t *testing.T) {
	const n = 23
	s := sim.NewScheduler(3)
	m := NewUnconnected(s, phy.DefaultParams(), n)
	tr := newMobilityTrace(n, 6.0, 1.5, 77)
	tr.step(m, 0) // initial reconcile at the starting positions
	for step := 1; step <= 250; step++ {
		// Mix small drifts with occasional large jumps so both sparse and
		// massive per-step deltas are exercised.
		stride := 0.3
		if step%17 == 0 {
			stride = 3.0
		}
		tr.step(m, stride)
		checkIndexAgainstMatrix(t, m, step)
		checkTableInvariants(t, m.Table(), step)
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if want := tr.inRangeOracle(a, b); m.Connected(NodeID(a), NodeID(b)) != want {
					t.Fatalf("step %d: Connected(%d,%d) = %v, positional oracle %v",
						step, a, b, !want, want)
				}
			}
		}
	}
}

// runEquivalenceScenario drives an identical randomized partial-mesh
// traffic pattern through the medium and returns everything observable:
// per-radio reception/carrier counts and the channel stats. scan routes
// every transmission through scanRef, the test-only O(N) scan against a
// shadow link matrix; the default is the production neighbor index. Both
// must produce bit-identical observations (same RNG draw sequence
// included).
//
// churn additionally cuts, restores and re-SNRs links — in the medium (or,
// for scanRef, its bare link table) and the shadow alike — while frames
// are in flight, with capture on so interference levels matter too. The
// production run then checks the in-flight index after every change; the
// reference run returns how many of its marking decisions the changes
// altered.
func runEquivalenceScenario(t *testing.T, scan, churn bool) ([]fakeRadio, Stats, int) {
	t.Helper()
	const n = 14
	s := sim.NewScheduler(5)
	m := New(s, phy.DefaultParams(), n)
	st := newShadowTable(phy.DefaultParams(), n)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			st.setConnectedDirected(a, b, true)
		}
	}

	// Randomized sparse topology, including asymmetric cuts and per-link
	// SNR spread, written to the medium and the shadow alike. Node 9 stays
	// detached (nil radio): the collision loops must skip it.
	rng := rand.New(rand.NewSource(99))
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			switch op := rng.Intn(4); op {
			case 0, 1: // bidirectional / directed cut (odd value = off)
				applyOp(m, st, op, a, b, 1)
			case 2:
				applyOp(m, st, op, a, b, 6+float64(rng.Intn(22)))
			}
		}
	}
	radios := make([]fakeRadio, n)
	for i := 0; i < n; i++ {
		if i == 9 {
			continue
		}
		m.Attach(NodeID(i), &radios[i])
	}
	txCtrl, txAgg := m.TransmitControl, m.TransmitAggregate
	var links linkSetter = m
	var ref *scanRef
	if scan {
		ref = &scanRef{t: t, m: m, st: st}
		txCtrl, txAgg = ref.transmitControl, ref.transmitAggregate
		links = refLinks{m.tbl}
	}
	if churn {
		m.SetCapture(3)
	}

	// Overlapping traffic: staggered controls and aggregates from many
	// sources, close enough in time to collide at shared receivers. Under
	// churn, link changes land inside the control frame's airtime (before
	// the aggregate launches against it) and inside the aggregate's.
	at := time.Duration(0)
	for round := 0; round < 40; round++ {
		src := NodeID((round * 5) % n)
		if src == 9 {
			src = 10
		}
		src2 := NodeID((round*7 + 3) % n)
		if src2 == 9 {
			src2 = 8
		}
		c := frame.Control{Type: frame.TypeCTS, RA: frame.Broadcast}
		agg := dataAgg(1+round%3, 400, frame.NodeAddr(int((src+1)%n)))
		rsrc, rsrc2 := src, src2
		s.After(at, "tx-ctrl", func() { txCtrl(rsrc, c) })
		s.After(at+40*time.Microsecond, "tx-agg", func() { txAgg(rsrc2, agg) })
		if churn {
			// Each change edits a link of the frame in flight: a cut or
			// raise (both ways or one way), an SNR override, or a return
			// to the default SNR.
			for _, ch := range []struct {
				off time.Duration
				src NodeID
			}{{20 * time.Microsecond, src}, {100 * time.Microsecond, src2}} {
				op, a, b, v := []int{0, 1, 2, 2, 6}[rng.Intn(5)], int(ch.src), rng.Intn(n), float64(6+rng.Intn(22))
				s.After(at+ch.off, "churn", func() {
					applyOp(links, st, op, a, b, v)
					if !scan {
						checkAirIndex(t, m)
					}
				})
			}
		}
		at += 3 * time.Millisecond
	}
	s.Run()
	if ref != nil {
		return radios, m.Stats(), ref.churnMarks
	}
	return radios, m.Stats(), 0
}

// compareRuns fails on any observable difference between an indexed run
// and a reference run.
func compareRuns(t *testing.T, fastRadios []fakeRadio, fastStats Stats, scanRadios []fakeRadio, scanStats Stats) {
	t.Helper()
	if fastStats != scanStats {
		t.Errorf("stats diverged:\nindexed: %+v\nscan:    %+v", fastStats, scanStats)
	}
	if fastStats.Collisions == 0 {
		t.Error("scenario produced no collisions; the marking paths went unexercised")
	}
	for i := range fastRadios {
		f, d := &fastRadios[i], &scanRadios[i]
		if f.busyEdges != d.busyEdges || f.idleEdges != d.idleEdges {
			t.Errorf("radio %d carrier edges diverged: indexed %d/%d scan %d/%d",
				i, f.busyEdges, f.idleEdges, d.busyEdges, d.idleEdges)
		}
		if !reflect.DeepEqual(f.ctrls, d.ctrls) || !reflect.DeepEqual(f.ctrlSrcs, d.ctrlSrcs) {
			t.Errorf("radio %d control receptions diverged", i)
		}
		if !reflect.DeepEqual(f.snrs, d.snrs) {
			t.Errorf("radio %d reported SNRs diverged", i)
		}
		if !reflect.DeepEqual(f.aggs, d.aggs) || !reflect.DeepEqual(f.aggSrcs, d.aggSrcs) {
			t.Errorf("radio %d aggregate receptions diverged", i)
		}
		if !reflect.DeepEqual(f.views, d.views) {
			t.Errorf("radio %d decoded views diverged", i)
		}
		checkViews(t, i, f)
		checkViews(t, i, d)
	}
}

// TestIndexedMatchesDenseScan pins the neighbor-indexed hot paths to the
// scan-every-radio reference on a randomized partial mesh with collisions,
// asymmetric links, SNR spread, and a detached radio.
func TestIndexedMatchesDenseScan(t *testing.T) {
	fastRadios, fastStats, _ := runEquivalenceScenario(t, false, false)
	scanRadios, scanStats, _ := runEquivalenceScenario(t, true, false)
	compareRuns(t, fastRadios, fastStats, scanRadios, scanStats)
}

// TestIndexedMatchesScanUnderLinkChurn is the same pin with links cut,
// restored and re-SNR'd under frames in flight: the in-flight index must
// follow every change exactly as the reference's fresh scan of the shadow
// does, and the changes must actually move collision marks.
func TestIndexedMatchesScanUnderLinkChurn(t *testing.T) {
	fastRadios, fastStats, _ := runEquivalenceScenario(t, false, true)
	scanRadios, scanStats, churnMarks := runEquivalenceScenario(t, true, true)
	compareRuns(t, fastRadios, fastStats, scanRadios, scanStats)
	t.Logf("link changes altered %d marking decisions; %+v", churnMarks, fastStats)
	if churnMarks == 0 {
		t.Error("no link change altered a collision mark; the index repair went unexercised")
	}
	if fastStats.Captures == 0 {
		t.Error("scenario produced no captures; interference levels went unexercised")
	}
}

// checkAirIndex asserts the in-flight index from scratch: node x holds one
// entry for each in-flight frame whose launch-time audience holds x or
// whose source is connected to x now, with x's audience position, the
// current connectivity, and (while heard) the current SNR — and nothing
// else.
func checkAirIndex(t *testing.T, m *Medium) {
	t.Helper()
	want := 0
	for _, own := range m.txOf {
		for _, o := range own {
			for x := range m.air {
				id := NodeID(x)
				pos := int32(slices.Index(o.audience, id))
				heard := m.Connected(o.src, id)
				i := m.airAt(id, o)
				if pos < 0 && !heard {
					if i >= 0 {
						t.Fatalf("air[%d] keeps a frame from %d it neither heard at launch nor hears now", x, o.src)
					}
					continue
				}
				want++
				if i < 0 {
					t.Fatalf("air[%d] misses the frame from %d (audience pos %d, heard %v)", x, o.src, pos, heard)
				}
				e := m.air[x][i]
				if e.pos != pos || e.heard != heard || heard && e.snrdB != m.SNR(o.src, id) {
					t.Fatalf("air[%d] entry for the frame from %d = %+v, want pos %d heard %v snr %v",
						x, o.src, e, pos, heard, m.SNR(o.src, id))
				}
			}
		}
	}
	got := 0
	for _, a := range m.air {
		got += len(a)
	}
	if got != want {
		t.Fatalf("in-flight index holds %d entries, want %d", got, want)
	}
}

// TestUnconnectedMediumDefaults: a virgin NewUnconnected medium hears
// nothing, and connecting a link gives it the calibrated default SNR.
func TestUnconnectedMediumDefaults(t *testing.T) {
	s := sim.NewScheduler(1)
	p := phy.DefaultParams()
	m := NewUnconnected(s, p, 3)
	r := &fakeRadio{}
	m.Attach(1, r)
	m.Attach(0, &fakeRadio{})
	s.After(0, "tx", func() { m.TransmitControl(0, frame.Control{Type: frame.TypeCTS, RA: frame.NodeAddr(1)}) })
	s.Run()
	if len(r.ctrls) != 0 || r.busyEdges != 0 {
		t.Fatal("unconnected medium delivered a frame")
	}
	if m.Degree(0) != 0 {
		t.Fatalf("unconnected Degree = %d", m.Degree(0))
	}
	m.SetConnected(0, 1, true)
	s.After(time.Millisecond, "tx", func() { m.TransmitControl(0, frame.Control{Type: frame.TypeCTS, RA: frame.NodeAddr(1)}) })
	s.Run()
	if len(r.ctrls) != 1 {
		t.Fatalf("connected link delivered %d frames, want 1", len(r.ctrls))
	}
	if r.snrs[0] != p.SNRdB {
		t.Fatalf("default link SNR = %v, want %v", r.snrs[0], p.SNRdB)
	}
}
