// Package medium models the shared wireless channel: propagation of control
// frames and aggregates to every node in range, carrier-sense (energy
// detect) signaling, half-duplex constraints, collision destruction, and
// per-subframe corruption driven by the PHY error model.
//
// The paper's testbed places all nodes within radio range of each other
// (multi-hop topologies are forced by static routing), so the default
// connectivity is a single collision domain; links can be cut or given
// per-link SNR for extension experiments.
//
// # Complexity model
//
// Per-transmission cost is proportional to the transmitter's degree times
// the number of frames in flight around it, not to the network size. The
// link table keeps an incrementally sorted out-neighbor list per node with
// each link's SNR stored inline beside it (the setters update both in
// O(deg)). The medium keeps a per-node index of the in-flight transmissions
// that concern that node. A launch walks its source's neighbor list once:
// it captures the audience (the attached radios in range), marks collisions
// at each audience member against the frames indexed there, and indexes the
// new frame; finish unindexes it the same way. No step hashes, scans the
// other frames on the air, or touches per-node state outside the
// neighborhood, and the per-frame collision state is sized by the audience.
//
// Mobility and fault injection can change a link while a frame is in
// flight, so the time base of each step is part of the model:
//   - Energy detect, delivery, carrier release and the half-duplex mark (a
//     node that starts transmitting loses the frames it was receiving) use
//     the audience captured at launch.
//   - Collision marking uses the links as they are at the new frame's
//     launch: an in-flight frame collides with it at an audience member
//     whose radio is connected to the in-flight frame's source right now,
//     with that link's current SNR as the interference level. The link
//     setters repair the index when a link under a frame in flight changes.
//   - Delivery reads the link SNR at finish.
//
// Link state itself is sparse: besides the neighbor lists, a hash map from
// the packed (src, dst) pair to a slot in a flat link-state array answers
// Connected/SNR queries and keeps SNR overrides on cut links, so memory is
// O(N·degree + SNR overrides) — never the N×N matrix the seed kept. The
// seed's O(N) scan-every-radio launch and finish survive only in the
// package tests, as the reference the indexed hot paths are pinned against.
package medium

import (
	"fmt"
	"slices"
	"time"

	"aggmac/internal/frame"
	"aggmac/internal/phy"
	"aggmac/internal/sim"
)

// NodeID identifies an attached radio. IDs must be small non-negative
// integers (they index internal tables).
type NodeID int

// Radio is the interface the MAC exposes to the channel.
type Radio interface {
	// CarrierBusy and CarrierIdle report energy-detect transitions. They
	// are never called for the node's own transmissions.
	CarrierBusy()
	CarrierIdle()
	// RxControl delivers a control frame that survived the channel, with
	// the received SNR (Hydra's PHY reports it; rate adaptation feeds on
	// the RTS/CTS measurements).
	RxControl(src NodeID, c frame.Control, snrdB float64)
	// RxAggregate delivers an aggregate at the end of its airtime: its PHY
	// header, its (possibly corrupted) body bytes, and dec, the body
	// decoded by frame.DecodeAggregateInto.
	//
	// Both are shared. Every receiver that heard the frame cleanly gets the
	// same body backing array and the same dec, which the medium decodes
	// once per transmission; a receiver whose copy was corrupted gets a
	// private body and its own decode of it. dec is valid only for the
	// call: the medium reuses its subframe arrays. Receivers may retain
	// subslices of the body (a subframe's Payload is one) — the medium
	// never reuses a body — but MUST NOT write into the body or into dec;
	// either would corrupt the frame for the other receivers.
	RxAggregate(src NodeID, hdr frame.PHYHeader, body []byte, dec *frame.DecodedAggregate)
}

// link holds per-directed-link channel state.
type link struct {
	connected bool
	snrdB     float64
}

// LinkTable is the connectivity state of a network, stored sparsely: the
// incrementally-maintained sorted neighbor lists, with each link's SNR
// inline, are the primary store the hot paths read, and a hash map from the
// packed (from, to) pair to a slot in a flat link-state array answers
// directed Connected/SNR queries for any pair. Only links that differ from
// the default — connected, or carrying an SNR override — occupy a slot, so
// memory is O(N·degree + overrides) instead of the seed's N×N matrix.
type LinkTable struct {
	n int
	// defSNR is the SNR every non-self link reports until overridden
	// (params.SNRdB at construction). Self pairs default to 0, matching the
	// seed's zeroed matrix diagonal.
	defSNR float64
	// nbrs[src] lists, in ascending node id, every dst that can hear src,
	// and snrs[src][i] is the src→nbrs[src][i] SNR — a copy of the slot's
	// value kept beside the list so the hot paths never hash. Both are
	// maintained incrementally by the connectivity and SNR setters.
	nbrs [][]NodeID
	snrs [][]float64
	// idx maps pairKey(from, to) to a slot index; slots holds the state and
	// free recycles released slots. An entry exists iff the link is
	// connected or its SNR differs from the directed pair's default.
	idx   map[uint64]int32
	slots []link
	free  []int32
	// directed counts connected directed links (Σ len(nbrs)).
	directed int
}

// pairKey packs a directed pair into the sparse index key. NodeIDs index
// in-memory tables and the wire format caps them at 16 bits, so 32 bits per
// endpoint is never lossy.
func pairKey(from, to NodeID) uint64 {
	return uint64(uint32(from))<<32 | uint64(uint32(to))
}

// newLinkTable builds a table for n nodes with every link cut; SNR defaults
// to params.SNRdB once connected. Construction is O(N) — no pair state
// exists until a setter creates it.
func newLinkTable(params phy.Params, n int) *LinkTable {
	return &LinkTable{
		n:      n,
		defSNR: params.SNRdB,
		nbrs:   make([][]NodeID, n),
		snrs:   make([][]float64, n),
		idx:    make(map[uint64]int32),
	}
}

// DirectedLinks returns the number of connected directed links — the
// "N·degree" term of the table's memory footprint.
func (t *LinkTable) DirectedLinks() int { return t.directed }

// defaultSNR is what a pair reports with no slot: params.SNRdB for distinct
// nodes, 0 for the self pair (the seed never initialized its diagonal).
func (t *LinkTable) defaultSNR(from, to NodeID) float64 {
	if from == to {
		return 0
	}
	return t.defSNR
}

// alloc takes a free slot (or grows the slab) and returns its index.
func (t *LinkTable) alloc(l link) int32 {
	if n := len(t.free); n > 0 {
		s := t.free[n-1]
		t.free = t.free[:n-1]
		t.slots[s] = l
		return s
	}
	t.slots = append(t.slots, l)
	return int32(len(t.slots) - 1)
}

// release drops a pair whose state is back to default.
func (t *LinkTable) release(k uint64, s int32) {
	delete(t.idx, k)
	t.free = append(t.free, s)
}

// connected reports whether to can hear from.
func (t *LinkTable) connected(from, to NodeID) bool {
	if from == to {
		return false
	}
	s, ok := t.idx[pairKey(from, to)]
	return ok && t.slots[s].connected
}

// snr returns the from→to SNR: the inline copy while the link is
// connected, else the slot's override or the default.
func (t *LinkTable) snr(from, to NodeID) float64 {
	if i, ok := slices.BinarySearch(t.nbrs[from], to); ok {
		return t.snrs[from][i]
	}
	if s, ok := t.idx[pairKey(from, to)]; ok {
		return t.slots[s].snrdB
	}
	return t.defaultSNR(from, to)
}

// setConnectedDirected cuts or restores the from→to direction, keeping the
// neighbor list and the sparse index in step. Reports whether anything
// changed.
func (t *LinkTable) setConnectedDirected(from, to NodeID, connected bool) bool {
	if from == to {
		return false // self-links are meaningless (Connected is always false)
	}
	k := pairKey(from, to)
	s, ok := t.idx[k]
	if cur := ok && t.slots[s].connected; cur == connected {
		return false
	}
	if connected {
		if !ok {
			s = t.alloc(link{snrdB: t.defSNR})
			t.idx[k] = s
		}
		t.slots[s].connected = true
		i, _ := slices.BinarySearch(t.nbrs[from], to)
		t.nbrs[from] = slices.Insert(t.nbrs[from], i, to)
		t.snrs[from] = slices.Insert(t.snrs[from], i, t.slots[s].snrdB)
		t.directed++
	} else {
		t.slots[s].connected = false
		if t.slots[s].snrdB == t.defSNR {
			t.release(k, s)
		}
		i, _ := slices.BinarySearch(t.nbrs[from], to)
		t.nbrs[from] = slices.Delete(t.nbrs[from], i, i+1)
		t.snrs[from] = slices.Delete(t.snrs[from], i, i+1)
		t.directed--
	}
	return true
}

// setSNRDirected overrides the from→to SNR. The override persists across
// disconnects (the seed's matrix kept SNR when a link was cut); a slot is
// dropped only when the pair is disconnected and back at its default SNR.
func (t *LinkTable) setSNRDirected(from, to NodeID, snrdB float64) {
	k := pairKey(from, to)
	if s, ok := t.idx[k]; ok {
		t.slots[s].snrdB = snrdB
		if t.slots[s].connected {
			i, _ := slices.BinarySearch(t.nbrs[from], to)
			t.snrs[from][i] = snrdB
		} else if snrdB == t.defaultSNR(from, to) {
			t.release(k, s)
		}
	} else if snrdB != t.defaultSNR(from, to) {
		t.idx[k] = t.alloc(link{snrdB: snrdB})
	}
}

// connectFull wires every ordered pair at the default SNR — the paper's
// single-collision-domain testbed. O(N²) by definition of the topology; the
// generators for sparse meshes start from NewUnconnected instead.
func (t *LinkTable) connectFull() {
	for i := 0; i < t.n; i++ {
		nb := make([]NodeID, 0, t.n-1)
		snrs := make([]float64, 0, t.n-1)
		for j := 0; j < t.n; j++ {
			if i == j {
				continue
			}
			t.idx[pairKey(NodeID(i), NodeID(j))] = t.alloc(link{connected: true, snrdB: t.defSNR})
			nb = append(nb, NodeID(j))
			snrs = append(snrs, t.defSNR)
		}
		t.nbrs[i], t.snrs[i] = nb, snrs
	}
	t.directed = t.n * (t.n - 1)
}

// transmission is pooled: Medium recycles finished transmissions (and their
// audience/collided/interfSNR/spans/decoded-subframe backing arrays) through
// a free list, so putting a frame on the air allocates only its marshaled
// body — which is shared with receivers and therefore the one thing that
// must not be reused.
type transmission struct {
	src        NodeID
	start, end sim.Time
	isControl  bool
	control    frame.Control
	hdr        frame.PHYHeader
	body       []byte
	spans      []frame.Span
	// dec is body decoded, filled by the first clean delivery (decoded) and
	// shared by every clean receiver.
	dec     frame.DecodedAggregate
	decoded bool
	// audience is the set of attached in-range radios, captured once at
	// launch (ascending node id); energy detect, delivery and carrier
	// release iterate it. collided and interfSNR are indexed like it.
	audience  []NodeID
	collided  []bool    // set when overlap observed at that audience member
	interfSNR []float64 // strongest interferer there, for capture
	finishFn  func()    // pooled txEnd callback: m.finish(this)
}

// addInterf records that the copy of this transmission at audience position
// i overlapped an interferer heard at snrdB, keeping the strongest
// interferer for capture.
func (t *transmission) addInterf(i int32, snrdB float64) {
	if !t.collided[i] || snrdB > t.interfSNR[i] {
		t.collided[i] = true
		t.interfSNR[i] = snrdB
	}
}

// airEntry is one in-flight transmission in a node's index (Medium.air).
type airEntry struct {
	tx *transmission
	// snrdB is the tx.src→node SNR, kept current while heard.
	snrdB float64
	// pos is the node's position in tx.audience, or -1 if the node was not
	// in the audience at launch.
	pos int32
	// heard reports that tx.src is connected to the node right now.
	heard bool
}

// Event is one observable channel event, for tracing.
type Event struct {
	At   time.Duration
	Kind string // "tx-ctrl", "tx-agg", "rx-ctrl", "rx-agg", "collision", "ctrl-noise", "half-duplex"
	Src  NodeID
	Dst  NodeID // -1 for transmissions (broadcast medium)
	Dur  time.Duration
	Info string
}

// Observer receives channel events as they happen.
type Observer func(Event)

// Stats counts channel-level events.
type Stats struct {
	ControlTx    int
	AggregateTx  int
	Collisions   int // receptions destroyed by overlap
	Captures     int // receptions that survived a collision via capture
	HalfDuplex   int // receptions missed because the receiver was transmitting
	CorruptCtrl  int // control frames destroyed by noise
	AirtimeTotal time.Duration
}

// Medium is the shared channel.
type Medium struct {
	sched  *sim.Scheduler
	params phy.Params
	errs   *phy.ErrorCache

	radios []Radio
	busy   []int // energy-detect refcount per node
	// air[x] indexes the in-flight transmissions that concern node x: those
	// whose launch-time audience holds x, and those whose source is
	// connected to x now (see the package comment for which step uses
	// which). txOf[x] lists x's own in-flight transmissions, so a link
	// change can repair air; a node with any is on the air (half duplex).
	air  [][]airEntry
	txOf [][]*transmission
	// tbl holds the link state and neighbor index.
	tbl *LinkTable

	txFree   []*transmission // recycled transmissions (pooled arrays)
	stats    Stats
	observer Observer
	// corruptDec holds the decode of a corrupted receiver's private body
	// for the duration of its RxAggregate call.
	corruptDec frame.DecodedAggregate
	// captureDB, when > 0, lets the stronger frame of a collision survive
	// if its SNR margin over the strongest interferer exceeds this
	// threshold (physical-layer capture; off by default, matching the
	// paper's conservative any-overlap-destroys model).
	captureDB float64
}

// New creates a medium for up to n nodes, fully connected at params.SNRdB.
func New(sched *sim.Scheduler, params phy.Params, n int) *Medium {
	m := NewUnconnected(sched, params, n)
	m.tbl.connectFull()
	return m
}

// NewUnconnected creates a medium for up to n nodes with every link cut
// (SNR defaults to params.SNRdB once connected). Topology generators wire
// sparse meshes onto it with SetConnected/SetSNR; starting empty keeps
// construction O(E) instead of tearing down O(N²) default links.
func NewUnconnected(sched *sim.Scheduler, params phy.Params, n int) *Medium {
	return &Medium{
		sched:  sched,
		params: params,
		errs:   phy.NewErrorCache(params),
		radios: make([]Radio, n),
		busy:   make([]int, n),
		air:    make([][]airEntry, n),
		txOf:   make([][]*transmission, n),
		tbl:    newLinkTable(params, n),
	}
}

// getTx pops a pooled transmission (or makes the pool's next one).
func (m *Medium) getTx() *transmission {
	var t *transmission
	if n := len(m.txFree); n > 0 {
		t = m.txFree[n-1]
		m.txFree = m.txFree[:n-1]
	} else {
		t = &transmission{}
		t.finishFn = func() { m.finish(t) }
	}
	return t
}

// putTx recycles a finished transmission. The body is deliberately dropped,
// not reused: receivers may retain subslices of it (see Radio.RxAggregate).
// The decoded subframes are cleared so the pool keeps no body alive.
func (m *Medium) putTx(t *transmission) {
	t.body = nil
	dropDecoded(&t.dec)
	t.decoded = false
	t.spans = t.spans[:0]
	t.audience = t.audience[:0]
	t.collided = t.collided[:0]
	t.interfSNR = t.interfSNR[:0]
	t.control = frame.Control{}
	t.hdr = frame.PHYHeader{}
	m.txFree = append(m.txFree, t)
}

// Params returns the PHY constants the medium applies.
func (m *Medium) Params() phy.Params { return m.params }

// Stats returns a snapshot of channel counters.
func (m *Medium) Stats() Stats { return m.stats }

// SetObserver installs a channel-event observer (nil disables tracing).
func (m *Medium) SetObserver(o Observer) { m.observer = o }

func (m *Medium) emit(ev Event) {
	if m.observer != nil {
		ev.At = time.Duration(m.sched.Now())
		m.observer(ev)
	}
}

// Attach registers the radio for id. It panics on reuse: double-attachment
// is a wiring bug.
func (m *Medium) Attach(id NodeID, r Radio) {
	if m.radios[id] != nil {
		panic(fmt.Sprintf("medium: node %d attached twice", id))
	}
	m.radios[id] = r
}

// SetConnected cuts or restores the bidirectional link between a and b.
func (m *Medium) SetConnected(a, b NodeID, connected bool) {
	m.SetConnectedDirected(a, b, connected)
	m.SetConnectedDirected(b, a, connected)
}

// SetConnectedDirected cuts or restores only the from→to direction
// (asymmetric links; useful for failure injection). The from-node's
// neighbor list is updated in place, O(deg), and so is the in-flight index
// at to for any frame from is sending.
func (m *Medium) SetConnectedDirected(from, to NodeID, connected bool) {
	if !m.tbl.setConnectedDirected(from, to, connected) {
		return
	}
	for _, o := range m.txOf[from] {
		i := m.airAt(to, o)
		switch {
		case connected && i >= 0: // back in range of a launch-time audience member
			m.air[to][i].heard, m.air[to][i].snrdB = true, m.tbl.snr(from, to)
		case connected:
			m.air[to] = append(m.air[to], airEntry{tx: o, snrdB: m.tbl.snr(from, to), pos: -1, heard: true})
		case m.air[to][i].pos >= 0: // still in the audience, no longer hears o
			m.air[to][i].heard = false
		default:
			m.dropAir(to, i)
		}
	}
}

// SetCapture enables physical-layer capture: a frame survives a collision
// when its SNR beats the strongest interferer by at least marginDB.
// Zero disables (the default).
func (m *Medium) SetCapture(marginDB float64) { m.captureDB = marginDB }

// SetSNR overrides the SNR of the bidirectional link between a and b. The
// override persists even while the link is cut (mobility raises links back
// with fresh SNR; fault injection relies on the stored value surviving).
func (m *Medium) SetSNR(a, b NodeID, snrdB float64) {
	m.setSNRDirected(a, b, snrdB)
	m.setSNRDirected(b, a, snrdB)
}

// setSNRDirected overrides the from→to SNR and refreshes it in the in-flight
// index for any frame from is sending.
func (m *Medium) setSNRDirected(from, to NodeID, snrdB float64) {
	m.tbl.setSNRDirected(from, to, snrdB)
	for _, o := range m.txOf[from] {
		if i := m.airAt(to, o); i >= 0 {
			m.air[to][i].snrdB = snrdB
		}
	}
}

// airAt returns t's position in node x's in-flight index, or -1.
func (m *Medium) airAt(x NodeID, t *transmission) int {
	for i := range m.air[x] {
		if m.air[x][i].tx == t {
			return i
		}
	}
	return -1
}

// dropAir removes entry i from node x's in-flight index. Order within an
// index carries no meaning (collision marks keep the maximum interferer),
// so the tail entry fills the gap.
func (m *Medium) dropAir(x NodeID, i int) {
	a := m.air[x]
	last := len(a) - 1
	a[i] = a[last]
	a[last] = airEntry{}
	m.air[x] = a[:last]
}

// Table returns the medium's link table.
func (m *Medium) Table() *LinkTable { return m.tbl }

// Connected reports whether b can hear a.
func (m *Medium) Connected(a, b NodeID) bool { return m.tbl.connected(a, b) }

// SNR returns the configured SNR of the a→b link in dB (meaningful only
// while the link is connected; mobility tests use it to audit refreshes).
func (m *Medium) SNR(a, b NodeID) float64 { return m.tbl.snr(a, b) }

// Neighbors returns the nodes that can hear src, in ascending id order.
// The slice is the medium's live index: callers must not modify it and must
// not retain it across connectivity changes.
func (m *Medium) Neighbors(src NodeID) []NodeID { return m.tbl.nbrs[src] }

// Degree returns how many nodes can hear src.
func (m *Medium) Degree(src NodeID) int { return len(m.tbl.nbrs[src]) }

// CarrierBusy reports whether node id currently senses energy from others.
func (m *Medium) CarrierBusy(id NodeID) bool { return m.busy[id] > 0 }

// Transmitting reports whether node id is itself on the air.
func (m *Medium) Transmitting(id NodeID) bool { return len(m.txOf[id]) > 0 }

// ControlAirtime is the on-air time of a control frame: preamble plus its
// bytes at the control rate.
func (m *Medium) ControlAirtime(c *frame.Control) time.Duration {
	return m.params.PreamblePLCP + phy.Airtime(c.WireSize(), m.params.ControlRate)
}

// AggregateAirtime is the on-air time of an aggregate: preamble, the extra
// broadcast descriptor when present, then each portion at its own rate.
func (m *Medium) AggregateAirtime(agg *frame.Aggregate) time.Duration {
	d := m.params.PreamblePLCP + m.params.BroadcastDescDuration(agg.HasBroadcast())
	if n := agg.BroadcastBytes(); n > 0 {
		d += phy.Airtime(n, agg.BroadcastRate)
	}
	if n := agg.UnicastBytes(); n > 0 {
		d += phy.Airtime(n, agg.UnicastRate)
	}
	return d
}

// TransmitControl puts a control frame on the air and returns its airtime.
func (m *Medium) TransmitControl(src NodeID, c frame.Control) time.Duration {
	d := m.ControlAirtime(&c)
	t := m.getTx()
	t.src, t.start, t.end = src, m.sched.Now(), m.sched.Now()+d
	t.isControl, t.control = true, c
	m.stats.ControlTx++
	if m.observer != nil {
		m.emit(Event{Kind: "tx-ctrl", Src: src, Dst: -1, Dur: d, Info: c.Type.String()})
	}
	m.launch(t)
	return d
}

// TransmitAggregate marshals and puts an aggregate on the air, returning
// its airtime. The body is marshaled exactly once and decoded at most once;
// clean receivers all share both (see Radio.RxAggregate).
func (m *Medium) TransmitAggregate(src NodeID, agg *frame.Aggregate) time.Duration {
	d := m.AggregateAirtime(agg)
	t := m.getTx()
	t.src, t.start, t.end = src, m.sched.Now(), m.sched.Now()+d
	t.isControl = false
	t.hdr = agg.Header()
	t.body, t.spans = agg.AppendMarshal(make([]byte, 0, agg.Bytes()), t.spans[:0])
	m.stats.AggregateTx++
	if m.observer != nil {
		m.emit(Event{Kind: "tx-agg", Src: src, Dst: -1, Dur: d,
			Info: fmt.Sprintf("%db+%du %dB @%v", len(agg.Broadcast), len(agg.Unicast), agg.Bytes(), agg.UnicastRate)})
	}
	m.launch(t)
	return d
}

// launch puts t on the air: half-duplex deafening, audience capture,
// mutual collision marking, indexing, energy detect, and the scheduled
// finish. Frames whose end is at or before t.start (now) are on their way
// out and never overlap t.
func (m *Medium) launch(t *transmission) {
	m.stats.AirtimeTotal += t.end - t.start
	// The new transmitter deafens itself to the receptions in progress at
	// it; its own signal is infinitely strong, so capture can never save
	// them.
	for _, e := range m.air[t.src] {
		if e.pos >= 0 && e.tx.end > t.start {
			e.tx.addInterf(e.pos, 1e9)
		}
	}
	// One walk of the source's neighbor list captures the audience, marks
	// collisions both ways at each audience member against the in-flight
	// frames it hears now (both frames are damaged there), and indexes t.
	// Nodes with no radio attached are indexed but never marked.
	nbrs, snrs := m.tbl.nbrs[t.src], m.tbl.snrs[t.src]
	for j, nid := range nbrs {
		snr, pos := snrs[j], int32(-1)
		if m.radios[nid] != nil {
			pos = int32(len(t.audience))
			t.audience = append(t.audience, nid)
			t.collided = append(t.collided, false)
			t.interfSNR = append(t.interfSNR, 0)
			for _, e := range m.air[nid] {
				if !e.heard || e.tx.end <= t.start {
					continue
				}
				t.addInterf(pos, e.snrdB)
				if e.pos >= 0 {
					e.tx.addInterf(e.pos, snr)
				}
			}
		}
		m.air[nid] = append(m.air[nid], airEntry{tx: t, snrdB: snr, pos: pos, heard: true})
	}
	m.txOf[t.src] = append(m.txOf[t.src], t)

	// Energy detect at every node in range.
	for _, nid := range t.audience {
		m.busy[nid]++
		if m.busy[nid] == 1 {
			m.radios[nid].CarrierBusy()
		}
	}

	m.sched.At(t.end, "medium:txEnd", t.finishFn)
}

func (m *Medium) finish(t *transmission) {
	own := m.txOf[t.src]
	k := slices.Index(own, t)
	own[k] = own[len(own)-1]
	own[len(own)-1] = nil
	m.txOf[t.src] = own[:len(own)-1]

	// Unindex t wherever it has an entry: its launch-time audience and its
	// source's current neighbors, merged (both ascend).
	nbrs := m.tbl.nbrs[t.src]
	j := 0
	for _, nid := range t.audience {
		for ; j < len(nbrs) && nbrs[j] < nid; j++ {
			m.dropAir(nbrs[j], m.airAt(nbrs[j], t))
		}
		if j < len(nbrs) && nbrs[j] == nid {
			j++
		}
		m.dropAir(nid, m.airAt(nid, t))
	}
	for ; j < len(nbrs); j++ {
		m.dropAir(nbrs[j], m.airAt(nbrs[j], t))
	}

	// Deliver to the audience captured at launch, then release carrier.
	// Delivery happens before idle notifications so MACs see the frame
	// before they resume backoff. Using the launch-time audience keeps the
	// busy refcount balanced even if connectivity changed mid-flight (the
	// seed re-evaluated the matrix here and could leak a refcount).
	for i := range t.audience {
		m.deliver(t, i)
	}
	for _, nid := range t.audience {
		m.busy[nid]--
		if m.busy[nid] == 0 {
			m.radios[nid].CarrierIdle()
		}
	}
	m.putTx(t)
}

// deliver hands t to its audience member at position i, reading the link
// SNR as it is now.
func (m *Medium) deliver(t *transmission, i int) {
	dst := t.audience[i]
	if len(m.txOf[dst]) > 0 {
		// Half duplex: a node on the air cannot decode. (Sufficient
		// because every transmission that overlapped ours in any way is
		// still counted busy at our end time only if it is still active;
		// any earlier overlap marked us collided at shared receivers, and
		// our own TX overlapping the tail of this reception is exactly
		// this case.)
		m.stats.HalfDuplex++
		m.emit(Event{Kind: "half-duplex", Src: t.src, Dst: dst})
		return
	}
	snr := m.tbl.snr(t.src, dst)
	if t.collided[i] {
		captured := m.captureDB > 0 && snr-t.interfSNR[i] >= m.captureDB
		if !captured {
			m.stats.Collisions++
			m.emit(Event{Kind: "collision", Src: t.src, Dst: dst})
			return
		}
		m.stats.Captures++
	}
	shift := snr - m.params.SNRdB // per-link adjustment

	if t.isControl {
		// Control frames end within the coherence budget; apply the flat
		// error probability for their size.
		end := m.params.Samples(m.params.PreamblePLCP + phy.Airtime(t.control.WireSize(), m.params.ControlRate))
		p := m.shiftedChunkErr(t.control.WireSize(), m.params.ControlRate, end, shift)
		if m.sched.Rand().Float64() < p {
			m.stats.CorruptCtrl++
			m.emit(Event{Kind: "ctrl-noise", Src: t.src, Dst: dst})
			return
		}
		m.emit(Event{Kind: "rx-ctrl", Src: t.src, Dst: dst, Info: t.control.Type.String()})
		m.radios[dst].RxControl(t.src, t.control, snr)
		return
	}

	// Preamble/PLCP failure loses the whole frame.
	preEnd := m.params.Samples(m.params.PreamblePLCP)
	if p := m.shiftedChunkErr(frame.PHYHeaderLen, m.params.ControlRate, preEnd, shift); m.sched.Rand().Float64() < p {
		return
	}

	// Corrupt individual subframes according to their airtime offsets.
	// The leading portion's airtime offsets the trailing portion's clock;
	// which portion leads depends on the header's Trailing flag.
	body := t.body
	copied := false
	prefix := m.params.PreamblePLCP + m.params.BroadcastDescDuration(t.hdr.BroadcastLen > 0)
	leadLen, leadRate := t.hdr.BroadcastLen, t.hdr.BroadcastRate
	if t.hdr.Trailing {
		leadLen, leadRate = t.hdr.UnicastLen, t.hdr.UnicastRate
	}
	leadEnd := prefix + phy.Airtime(leadLen, leadRate)
	for _, sp := range t.spans {
		rate := t.hdr.UnicastRate
		if sp.Broadcast {
			rate = t.hdr.BroadcastRate
		}
		var endT time.Duration
		if sp.Off < leadLen {
			endT = prefix + phy.Airtime(sp.Off+sp.Size, rate)
		} else {
			endT = leadEnd + phy.Airtime(sp.Off+sp.Size-leadLen, rate)
		}
		p := m.shiftedChunkErr(sp.Size, rate, m.params.Samples(endT), shift)
		if m.sched.Rand().Float64() >= p {
			continue
		}
		// Copy-on-corrupt: the shared clean body stays immutable; only a
		// receiver whose copy of the air was damaged gets private bytes.
		if !copied {
			body = append([]byte(nil), t.body...)
			copied = true
		}
		corruptSpan(body[sp.Off:sp.Off+sp.Size], m.sched)
	}
	if m.observer != nil {
		info := "clean"
		if copied {
			info = "corrupted"
		}
		m.emit(Event{Kind: "rx-agg", Src: t.src, Dst: dst, Info: info})
	}
	if copied {
		decode(&m.corruptDec, t.hdr, body)
		m.radios[dst].RxAggregate(t.src, t.hdr, body, &m.corruptDec)
		dropDecoded(&m.corruptDec)
		return
	}
	if !t.decoded {
		decode(&t.dec, t.hdr, t.body)
		t.decoded = true
	}
	m.radios[dst].RxAggregate(t.src, t.hdr, body, &t.dec)
}

// decode fills dec from an aggregate body. The medium marshaled body from
// the aggregate hdr describes and corruption only flips bits, so the
// lengths always agree.
func decode(dec *frame.DecodedAggregate, hdr frame.PHYHeader, body []byte) {
	if err := frame.DecodeAggregateInto(dec, hdr, body); err != nil {
		panic("medium: " + err.Error())
	}
}

// dropDecoded empties dec, zeroing its subframes so their payloads stop
// pinning the body they alias; the backing arrays are kept for reuse.
func dropDecoded(dec *frame.DecodedAggregate) {
	clear(dec.Broadcast)
	clear(dec.Unicast)
	dec.Broadcast, dec.Unicast = dec.Broadcast[:0], dec.Unicast[:0]
}

// shiftedChunkErr applies a per-link SNR shift on top of the global params,
// memoized through the medium's phy.ErrorCache (experiments hit a tiny set
// of {size, rate, offset, shift} keys).
func (m *Medium) shiftedChunkErr(nBytes int, r phy.Rate, endSample int64, snrShift float64) float64 {
	return m.errs.ChunkErrorProb(nBytes, r, endSample, snrShift)
}

// corruptSpan flips a few bits inside the span so the subframe's FCS (or
// its delineation) fails at decode time, exactly as on real hardware.
func corruptSpan(b []byte, sched *sim.Scheduler) {
	rng := sched.Rand()
	flips := 1 + rng.Intn(3)
	for i := 0; i < flips; i++ {
		bit := rng.Intn(len(b) * 8)
		b[bit/8] ^= 1 << (bit % 8)
	}
}
