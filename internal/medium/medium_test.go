package medium

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"aggmac/internal/frame"
	"aggmac/internal/phy"
	"aggmac/internal/sim"
)

// fakeRadio records everything the medium tells it.
type fakeRadio struct {
	busyEdges, idleEdges int
	ctrls                []frame.Control
	ctrlSrcs             []NodeID
	snrs                 []float64
	// aggs is an independent decode of each delivered body; views copies
	// the medium's decoded view of it (valid only during the call).
	aggs    []frame.DecodedAggregate
	views   []frame.DecodedAggregate
	aggSrcs []NodeID
}

func (f *fakeRadio) CarrierBusy() { f.busyEdges++ }
func (f *fakeRadio) CarrierIdle() { f.idleEdges++ }
func (f *fakeRadio) RxControl(src NodeID, c frame.Control, snrdB float64) {
	f.ctrls = append(f.ctrls, c)
	f.ctrlSrcs = append(f.ctrlSrcs, src)
	f.snrs = append(f.snrs, snrdB)
}
func (f *fakeRadio) RxAggregate(src NodeID, hdr frame.PHYHeader, body []byte, dec *frame.DecodedAggregate) {
	own, err := frame.DecodeAggregate(hdr, body)
	if err != nil {
		return
	}
	f.aggs = append(f.aggs, own)
	f.views = append(f.views, copyDecoded(dec))
	f.aggSrcs = append(f.aggSrcs, src)
}

// copyDecoded deep-copies a decoded view's subframe lists (empty lists come
// out nil, as in a fresh frame.DecodeAggregate). Payloads still alias the
// body, which receivers may retain.
func copyDecoded(d *frame.DecodedAggregate) frame.DecodedAggregate {
	c := *d
	c.Broadcast = append([]frame.DecodedSubframe(nil), d.Broadcast...)
	c.Unicast = append([]frame.DecodedSubframe(nil), d.Unicast...)
	return c
}

// checkViews fails unless every aggregate radio id received came with a
// decoded view equal to its own decode of the body it was handed.
func checkViews(t *testing.T, id int, r *fakeRadio) {
	t.Helper()
	if len(r.views) != len(r.aggs) {
		t.Fatalf("radio %d: %d views for %d aggregates", id, len(r.views), len(r.aggs))
	}
	for k := range r.aggs {
		if !reflect.DeepEqual(r.views[k], r.aggs[k]) {
			t.Fatalf("radio %d aggregate %d: medium's view %+v != own decode %+v", id, k, r.views[k], r.aggs[k])
		}
	}
}

func setup(t *testing.T, n int) (*sim.Scheduler, *Medium, []*fakeRadio) {
	t.Helper()
	s := sim.NewScheduler(1)
	m := New(s, phy.DefaultParams(), n)
	radios := make([]*fakeRadio, n)
	for i := range radios {
		radios[i] = &fakeRadio{}
		m.Attach(NodeID(i), radios[i])
	}
	return s, m, radios
}

func dataAgg(n int, payload int, dst frame.Addr) *frame.Aggregate {
	agg := &frame.Aggregate{UnicastRate: phy.Rate1300k}
	for i := 0; i < n; i++ {
		agg.Unicast = append(agg.Unicast, &frame.Subframe{
			Addr1: dst, Addr2: frame.NodeAddr(0), Payload: make([]byte, payload),
		})
	}
	return agg
}

func TestControlDelivery(t *testing.T) {
	s, m, radios := setup(t, 3)
	c := frame.Control{Type: frame.TypeRTS, Duration: time.Millisecond, RA: frame.NodeAddr(1), TA: frame.NodeAddr(0)}
	var dur time.Duration
	s.After(0, "tx", func() { dur = m.TransmitControl(0, c) })
	s.Run()
	want := m.ControlAirtime(&c)
	if dur != want {
		t.Fatalf("airtime %v, want %v", dur, want)
	}
	// 20 bytes at 0.65 Mbps + 320 µs preamble.
	if want != 320*time.Microsecond+phy.Airtime(frame.RTSLen, phy.Rate650k) {
		t.Fatalf("RTS airtime = %v", want)
	}
	for i := 1; i <= 2; i++ {
		if len(radios[i].ctrls) != 1 {
			t.Fatalf("radio %d got %d controls, want 1", i, len(radios[i].ctrls))
		}
		if radios[i].ctrls[0].Type != frame.TypeRTS || radios[i].ctrlSrcs[0] != 0 {
			t.Fatalf("radio %d got %+v from %d", i, radios[i].ctrls[0], radios[i].ctrlSrcs[0])
		}
	}
	if len(radios[0].ctrls) != 0 {
		t.Fatal("transmitter received its own frame")
	}
}

func TestCarrierSenseEdges(t *testing.T) {
	s, m, radios := setup(t, 3)
	s.After(0, "tx", func() { m.TransmitControl(0, frame.Control{Type: frame.TypeCTS, RA: frame.NodeAddr(1)}) })
	s.Run()
	for i := 1; i <= 2; i++ {
		if radios[i].busyEdges != 1 || radios[i].idleEdges != 1 {
			t.Fatalf("radio %d edges busy=%d idle=%d, want 1/1", i, radios[i].busyEdges, radios[i].idleEdges)
		}
	}
	if radios[0].busyEdges != 0 {
		t.Fatal("transmitter sensed its own carrier")
	}
	if m.CarrierBusy(1) {
		t.Fatal("carrier still busy after end")
	}
}

func TestCarrierBusyDuringTransmission(t *testing.T) {
	s, m, _ := setup(t, 2)
	agg := dataAgg(1, 1000, frame.NodeAddr(1))
	s.After(0, "tx", func() { m.TransmitAggregate(0, agg) })
	s.After(time.Millisecond, "check", func() {
		if !m.CarrierBusy(1) {
			t.Error("node 1 should sense busy mid-frame")
		}
		if !m.Transmitting(0) {
			t.Error("node 0 should be transmitting")
		}
	})
	s.Run()
}

func TestAggregateDeliveryClean(t *testing.T) {
	s, m, radios := setup(t, 2)
	agg := dataAgg(3, 1436, frame.NodeAddr(1))
	s.After(0, "tx", func() { m.TransmitAggregate(0, agg) })
	s.Run()
	if len(radios[1].aggs) != 1 {
		t.Fatalf("got %d aggregates, want 1", len(radios[1].aggs))
	}
	dec := radios[1].aggs[0]
	if len(dec.Unicast) != 3 {
		t.Fatalf("decoded %d unicast subframes, want 3", len(dec.Unicast))
	}
	for i, d := range dec.Unicast {
		if !d.CRCOK {
			t.Errorf("subframe %d corrupted on a clean 25 dB link", i)
		}
	}
}

func TestAggregateAirtimeComposition(t *testing.T) {
	_, m, _ := setup(t, 2)
	p := m.Params()
	// Unicast-only: preamble + bytes at unicast rate; no broadcast desc.
	u := dataAgg(2, 1436, frame.NodeAddr(1))
	want := p.PreamblePLCP + phy.Airtime(2*1464, phy.Rate1300k)
	if got := m.AggregateAirtime(u); got != want {
		t.Errorf("unicast-only airtime %v, want %v", got, want)
	}
	// Mixed: broadcast desc + broadcast portion at its own rate.
	mix := dataAgg(1, 1436, frame.NodeAddr(1))
	mix.BroadcastRate = phy.Rate650k
	mix.Broadcast = []*frame.Subframe{{Addr1: frame.NodeAddr(1), Payload: make([]byte, 132)}}
	want = p.PreamblePLCP + p.BroadcastDescDuration(true) +
		phy.Airtime(160, phy.Rate650k) + phy.Airtime(1464, phy.Rate1300k)
	if got := m.AggregateAirtime(mix); got != want {
		t.Errorf("mixed airtime %v, want %v", got, want)
	}
}

func TestCollisionDestroysBoth(t *testing.T) {
	s, m, radios := setup(t, 3)
	// Nodes 0 and 1 transmit overlapping frames; node 2 hears both -> loses both.
	s.After(0, "tx0", func() { m.TransmitControl(0, frame.Control{Type: frame.TypeCTS, RA: frame.NodeAddr(2)}) })
	s.After(10*time.Microsecond, "tx1", func() {
		m.TransmitControl(1, frame.Control{Type: frame.TypeCTS, RA: frame.NodeAddr(2)})
	})
	s.Run()
	if len(radios[2].ctrls) != 0 {
		t.Fatalf("node 2 decoded %d frames out of a collision", len(radios[2].ctrls))
	}
	if m.Stats().Collisions == 0 {
		t.Fatal("collision not counted")
	}
}

func TestNoCollisionWhenDisjointInTime(t *testing.T) {
	s, m, radios := setup(t, 3)
	c := frame.Control{Type: frame.TypeCTS, RA: frame.NodeAddr(2)}
	air := m.ControlAirtime(&c)
	s.After(0, "tx0", func() { m.TransmitControl(0, c) })
	s.After(air+time.Microsecond, "tx1", func() { m.TransmitControl(1, c) })
	s.Run()
	if len(radios[2].ctrls) != 2 {
		t.Fatalf("node 2 got %d frames, want 2", len(radios[2].ctrls))
	}
}

func TestHiddenTerminalCollision(t *testing.T) {
	s, m, radios := setup(t, 3)
	// 0 and 2 cannot hear each other; both transmit to 1 -> collision at 1.
	m.SetConnected(0, 2, false)
	s.After(0, "tx0", func() { m.TransmitControl(0, frame.Control{Type: frame.TypeCTS, RA: frame.NodeAddr(1)}) })
	s.After(time.Microsecond, "tx2", func() { m.TransmitControl(2, frame.Control{Type: frame.TypeCTS, RA: frame.NodeAddr(1)}) })
	s.Run()
	if len(radios[1].ctrls) != 0 {
		t.Fatal("hidden-terminal collision not destructive at shared receiver")
	}
}

func TestDisconnectedLinkNoDelivery(t *testing.T) {
	s, m, radios := setup(t, 3)
	m.SetConnected(0, 2, false)
	s.After(0, "tx", func() { m.TransmitControl(0, frame.Control{Type: frame.TypeCTS, RA: frame.NodeAddr(1)}) })
	s.Run()
	if len(radios[1].ctrls) != 1 {
		t.Fatal("connected node missed frame")
	}
	if len(radios[2].ctrls) != 0 {
		t.Fatal("disconnected node received frame")
	}
	if radios[2].busyEdges != 0 {
		t.Fatal("disconnected node sensed carrier")
	}
}

func TestHalfDuplexReceiverTransmitting(t *testing.T) {
	s, m, radios := setup(t, 3)
	// Node 1 starts a long transmission; node 0's frame arrives while node 1
	// is still on the air (no collision at 1's receivers needed): node 1
	// must miss it.
	long := dataAgg(3, 1436, frame.NodeAddr(2))
	m.SetConnected(0, 2, false) // node 2 only hears node 1
	s.After(0, "tx1", func() { m.TransmitAggregate(1, long) })
	s.After(time.Millisecond, "tx0", func() { m.TransmitControl(0, frame.Control{Type: frame.TypeAck, RA: frame.NodeAddr(1)}) })
	s.Run()
	if len(radios[1].ctrls) != 0 {
		t.Fatal("transmitting node decoded an overlapping frame (half duplex violated)")
	}
}

func TestAgedSubframesCorrupted(t *testing.T) {
	s, m, radios := setup(t, 2)
	// 12 KB of unicast at 0.65 Mbps is ~148 ms of airtime: far past the
	// 60 ms coherence budget. Early subframes survive, late ones must die.
	agg := dataAgg(8, 1436, frame.NodeAddr(1))
	agg.UnicastRate = phy.Rate650k
	s.After(0, "tx", func() { m.TransmitAggregate(0, agg) })
	s.Run()
	if len(radios[1].aggs) != 1 {
		t.Fatalf("got %d aggregates", len(radios[1].aggs))
	}
	dec := radios[1].aggs[0]
	okCount := 0
	for _, d := range dec.Unicast {
		if d.CRCOK {
			okCount++
		}
	}
	decoded := len(dec.Unicast)
	// First ~3 subframes fit in budget (3*1464B ≈ 54ms+preamble).
	if decoded > 0 && !dec.Unicast[0].CRCOK {
		t.Error("first subframe (within coherence) corrupted")
	}
	if okCount == decoded && dec.LostBytes == 0 {
		t.Errorf("no aged subframe corrupted: %d/%d ok", okCount, decoded)
	}
}

func TestBroadcastPortionAgesAfterPrefix(t *testing.T) {
	s, m, radios := setup(t, 2)
	// Broadcast subframes ride first: with a huge unicast tail, the
	// broadcasts still survive.
	agg := dataAgg(8, 1436, frame.NodeAddr(1))
	agg.UnicastRate = phy.Rate650k
	agg.BroadcastRate = phy.Rate650k
	agg.Broadcast = []*frame.Subframe{{Addr1: frame.NodeAddr(1), Payload: make([]byte, 132)}}
	s.After(0, "tx", func() { m.TransmitAggregate(0, agg) })
	s.Run()
	if len(radios[1].aggs) != 1 {
		t.Fatalf("got %d aggregates", len(radios[1].aggs))
	}
	dec := radios[1].aggs[0]
	if len(dec.Broadcast) != 1 || !dec.Broadcast[0].CRCOK {
		t.Error("leading broadcast subframe should survive aging")
	}
}

func TestWeakLinkCorruptsFrames(t *testing.T) {
	s, m, radios := setup(t, 2)
	m.SetSNR(0, 1, 3) // 3 dB: hopeless for QPSK
	lost := 0
	const tries = 20
	var send func(i int)
	send = func(i int) {
		if i >= tries {
			return
		}
		agg := dataAgg(1, 1436, frame.NodeAddr(1))
		d := m.TransmitAggregate(0, agg)
		s.After(d+time.Millisecond, "next", func() { send(i + 1) })
	}
	s.After(0, "start", func() { send(0) })
	s.Run()
	for _, dec := range radios[1].aggs {
		for _, sf := range dec.Unicast {
			if !sf.CRCOK {
				lost++
			}
		}
	}
	// Frames that never even decoded count as lost too.
	lost += tries - len(radios[1].aggs)
	if lost < tries/2 {
		t.Fatalf("only %d/%d frames corrupted on a 3 dB link", lost, tries)
	}
}

func TestAttachTwicePanics(t *testing.T) {
	s := sim.NewScheduler(1)
	m := New(s, phy.DefaultParams(), 2)
	m.Attach(0, &fakeRadio{})
	defer func() {
		if recover() == nil {
			t.Fatal("double attach did not panic")
		}
	}()
	m.Attach(0, &fakeRadio{})
}

// Zero-copy contract: every receiver that heard the frame cleanly gets the
// SAME backing array (marshal once, deliver many), and those bytes are
// exactly the marshaled aggregate. See Radio.RxAggregate.
func TestCleanDeliverySharesBody(t *testing.T) {
	s := sim.NewScheduler(1)
	m := New(s, phy.DefaultParams(), 3)
	var bodies [][]byte
	var decs []*frame.DecodedAggregate
	var views []frame.DecodedAggregate
	for i := 0; i < 3; i++ {
		m.Attach(NodeID(i), &captureRadio{onAgg: func(body []byte, dec *frame.DecodedAggregate) {
			bodies = append(bodies, body)
			decs = append(decs, dec)
			views = append(views, copyDecoded(dec))
		}})
	}
	agg := dataAgg(2, 100, frame.NodeAddr(1))
	agg.Broadcast = dataAgg(1, 60, frame.Broadcast).Unicast
	agg.BroadcastRate = phy.Rate1300k
	want, _ := agg.Marshal()
	s.After(0, "tx", func() { m.TransmitAggregate(0, agg) })
	s.Run()
	if len(bodies) != 2 {
		t.Fatalf("got %d bodies", len(bodies))
	}
	if &bodies[0][0] != &bodies[1][0] {
		t.Fatal("clean receivers should share one immutable body (zero-copy delivery)")
	}
	if !bytes.Equal(bodies[0], want) {
		t.Fatal("shared body differs from the marshaled aggregate")
	}
	// Decode once: both clean receivers get the same view, and it is
	// exactly what an independent decode of the shared body yields.
	if decs[0] != decs[1] {
		t.Fatal("clean receivers should share one decoded view")
	}
	ref, err := frame.DecodeAggregate(agg.Header(), want)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Broadcast) != 1 || len(ref.Unicast) != 2 {
		t.Fatalf("reference decode has %d+%d subframes, want 1+2", len(ref.Broadcast), len(ref.Unicast))
	}
	for i, v := range views {
		if !reflect.DeepEqual(v, ref) {
			t.Fatalf("receiver %d view %+v != independent decode %+v", i, v, ref)
		}
	}
}

// Copy-on-corrupt contract: a receiver whose copy of the air was damaged
// gets private bytes, and the shared clean body is untouched by the
// corruption.
func TestCorruptDeliveryGetsPrivateCopy(t *testing.T) {
	s := sim.NewScheduler(1)
	m := New(s, phy.DefaultParams(), 3)
	var got [3][][]byte
	var decs [3][]*frame.DecodedAggregate
	var views [3][]frame.DecodedAggregate
	for i := 0; i < 3; i++ {
		i := i
		m.Attach(NodeID(i), &captureRadio{onAgg: func(body []byte, dec *frame.DecodedAggregate) {
			got[i] = append(got[i], body)
			decs[i] = append(decs[i], dec)
			views[i] = append(views[i], copyDecoded(dec))
		}})
	}
	m.SetSNR(0, 1, 4) // node 1 hears a badly degraded copy; node 2 is clean
	agg := dataAgg(1, 200, frame.NodeAddr(1))
	want, _ := agg.Marshal()
	const tries = 60
	for i := 0; i < tries; i++ {
		s.After(sim.Time(i)*time.Second, "tx", func() { m.TransmitAggregate(0, agg) })
	}
	s.Run()
	if len(got[2]) != tries {
		t.Fatalf("clean receiver got %d/%d frames", len(got[2]), tries)
	}
	for _, b := range got[2] {
		if !bytes.Equal(b, want) {
			t.Fatal("clean receiver saw corrupted bytes: copy-on-corrupt mutated the shared body")
		}
	}
	// Node 1 is delivered before node 2 on every frame, so if its
	// corruption wrote into the shared body the clean-receiver check above
	// would have tripped. Here just confirm corruption actually happened.
	corrupted := 0
	for _, b := range got[1] {
		if !bytes.Equal(b, want) {
			corrupted++
		}
	}
	if corrupted == 0 {
		t.Fatalf("no corrupted deliveries in %d tries on a 4 dB link", tries)
	}
	// Every receiver's view is the decode of the bytes it was handed: a
	// corrupted receiver gets its own decode, never the shared clean one.
	clean := decs[2][0]
	for i := 1; i < 3; i++ {
		for k, b := range got[i] {
			ref, err := frame.DecodeAggregate(agg.Header(), b)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(views[i][k], ref) {
				t.Fatalf("receiver %d frame %d: view != independent decode of its body", i, k)
			}
			if isCorrupt := !bytes.Equal(b, want); isCorrupt == (decs[i][k] == clean) {
				t.Fatalf("receiver %d frame %d: corrupted=%v but shares the clean view=%v", i, k, isCorrupt, decs[i][k] == clean)
			}
		}
	}
}

// A recycled transmission must not keep its body alive through the decoded
// subframes' payloads, and neither may the corrupted-receiver scratch.
func TestRecycledTxHoldsNoPayloads(t *testing.T) {
	s, m, radios := setup(t, 3)
	m.SetSNR(0, 1, 4) // corrupted copies at node 1, clean ones at node 2
	agg := dataAgg(3, 200, frame.NodeAddr(1))
	for i := 0; i < 20; i++ {
		s.After(sim.Time(i)*time.Millisecond*50, "tx", func() { m.TransmitAggregate(0, agg) })
	}
	s.Run()
	if len(radios[2].aggs) == 0 {
		t.Fatal("no aggregate delivered: the decode path went unexercised")
	}
	for i, r := range radios {
		checkViews(t, i, r)
	}
	noPayloads := func(what string, dec *frame.DecodedAggregate) {
		if cap(dec.Unicast) == 0 {
			t.Fatalf("%s: never decoded into", what)
		}
		for _, sf := range append(dec.Broadcast[:cap(dec.Broadcast)], dec.Unicast[:cap(dec.Unicast)]...) {
			if sf.Payload != nil {
				t.Fatalf("%s still holds a subframe payload", what)
			}
		}
	}
	if len(m.txFree) == 0 {
		t.Fatal("no transmission was recycled")
	}
	for _, tx := range m.txFree {
		if tx.decoded {
			t.Fatal("recycled transmission still marked decoded")
		}
		noPayloads("recycled transmission", &tx.dec)
	}
	noPayloads("corrupted-receiver scratch", &m.corruptDec)
}

type captureRadio struct {
	onAgg func(body []byte, dec *frame.DecodedAggregate)
}

func (c *captureRadio) CarrierBusy()                             {}
func (c *captureRadio) CarrierIdle()                             {}
func (c *captureRadio) RxControl(NodeID, frame.Control, float64) {}
func (c *captureRadio) RxAggregate(_ NodeID, _ frame.PHYHeader, body []byte, dec *frame.DecodedAggregate) {
	c.onAgg(body, dec)
}

func TestCaptureEffect(t *testing.T) {
	// Nodes 0 (25 dB to receiver 2) and 1 (10 dB) collide at node 2.
	// Without capture both die; with a 10 dB margin the strong one lives.
	run := func(captureDB float64) int {
		s := sim.NewScheduler(9)
		m := New(s, phy.DefaultParams(), 3)
		m.SetCapture(captureDB)
		r := &fakeRadio{}
		m.Attach(2, r)
		m.Attach(0, &fakeRadio{})
		m.Attach(1, &fakeRadio{})
		m.SetSNR(1, 2, 10)
		s.After(0, "tx0", func() { m.TransmitControl(0, frame.Control{Type: frame.TypeCTS, RA: frame.NodeAddr(2)}) })
		s.After(time.Microsecond, "tx1", func() { m.TransmitControl(1, frame.Control{Type: frame.TypeCTS, RA: frame.NodeAddr(2)}) })
		s.Run()
		return len(r.ctrls)
	}
	if got := run(0); got != 0 {
		t.Errorf("no-capture collision delivered %d frames", got)
	}
	if got := run(10); got != 1 {
		t.Errorf("capture with 15 dB margin delivered %d frames, want 1", got)
	}
	// A margin larger than the 15 dB difference blocks capture again.
	if got := run(20); got != 0 {
		t.Errorf("capture with insufficient margin delivered %d frames", got)
	}
}

func TestCaptureNeverRescuesOwnTransmissionLoss(t *testing.T) {
	// Node 1 starts receiving from 0, then begins its own transmission:
	// even with capture on, half-duplex loss stands.
	s := sim.NewScheduler(9)
	m := New(s, phy.DefaultParams(), 3)
	m.SetCapture(1)
	r1 := &fakeRadio{}
	m.Attach(0, &fakeRadio{})
	m.Attach(1, r1)
	m.Attach(2, &fakeRadio{})
	m.SetConnected(1, 2, true)
	agg := dataAgg(3, 1436, frame.NodeAddr(1)) // long frame from 0
	s.After(0, "tx0", func() { m.TransmitAggregate(0, agg) })
	s.After(time.Millisecond, "tx1", func() {
		m.TransmitControl(1, frame.Control{Type: frame.TypeCTS, RA: frame.NodeAddr(2)})
	})
	s.Run()
	if len(r1.aggs) != 0 {
		t.Fatal("capture rescued a frame lost to the receiver's own transmission")
	}
}

func TestDirectedLinkAsymmetry(t *testing.T) {
	s := sim.NewScheduler(9)
	m := New(s, phy.DefaultParams(), 2)
	r0, r1 := &fakeRadio{}, &fakeRadio{}
	m.Attach(0, r0)
	m.Attach(1, r1)
	m.SetConnectedDirected(1, 0, false) // 1 cannot reach 0
	s.After(0, "tx0", func() { m.TransmitControl(0, frame.Control{Type: frame.TypeCTS, RA: frame.NodeAddr(1)}) })
	s.After(10*time.Millisecond, "tx1", func() { m.TransmitControl(1, frame.Control{Type: frame.TypeCTS, RA: frame.NodeAddr(0)}) })
	s.Run()
	if len(r1.ctrls) != 1 {
		t.Fatalf("forward direction broken: %d", len(r1.ctrls))
	}
	if len(r0.ctrls) != 0 {
		t.Fatalf("cut reverse direction delivered %d frames", len(r0.ctrls))
	}
}
