// Package mac implements the paper's medium access control layer: IEEE
// 802.11 DCF (CSMA/CA with binary exponential backoff, NAV virtual carrier
// sense, RTS/CTS, link-level ACKs and retransmission) extended with the
// three aggregation techniques of Kim et al.: unicast aggregation,
// broadcast aggregation, and TCP ACKs carried as broadcast subframes.
//
// The transmit path keeps two queues — one for broadcast frames (including
// classified TCP ACKs) and one for unicast frames. When the DCF acquires
// the floor, the MAC assembles the aggregate: queued broadcast subframes
// first (least exposed to channel-estimate aging), then unicast subframes
// bound for the destination at the head of the unicast queue, up to the
// maximum aggregation size. Transmissions with a unicast portion use
// RTS/CTS and require a single link ACK; broadcast-only transmissions use
// neither.
//
// The receive path mirrors §4.2.2 of the paper: broadcast subframes are
// delivered individually as their CRCs pass (subframes addressed to another
// node are dropped, not forwarded up); the unicast portion is all-or-nothing
// — every CRC must pass before anything is delivered and the ACK sent.
package mac

import (
	"fmt"
	"hash/crc32"
	"time"

	"aggmac/internal/frame"
	"aggmac/internal/medium"
	"aggmac/internal/phy"
	"aggmac/internal/sim"
	"aggmac/internal/telemetry"
)

// txState enumerates the sender-side exchange states.
type txState int

const (
	stIdle txState = iota
	stAwaitCTS
	stSIFSData // CTS received, waiting SIFS before data
	stSending  // data on the air
	stAwaitAck
)

// Outgoing is one frame handed down by the network layer.
type Outgoing struct {
	Dst     frame.Addr // Addr1: next hop, or the broadcast address
	Src     frame.Addr // Addr3: original source
	Payload []byte
	seq     uint64
}

// DeliverFunc receives subframes that passed the MAC's receive rules.
// viaBroadcast tells the network layer the subframe arrived in the
// broadcast portion (so a unicast-addressed TCP ACK is recognisable).
type DeliverFunc func(d frame.DecodedSubframe, viaBroadcast bool)

// MAC is one node's MAC entity.
type MAC struct {
	id    medium.NodeID
	addr  frame.Addr
	sched *sim.Scheduler
	med   *medium.Medium
	opts  Options

	deliver DeliverFunc

	bq, uq []Outgoing
	seq    uint64

	cw           int
	retries      int
	backoffSlots int // -1: not drawn
	inAccess     bool
	state        txState
	respBusy     bool // transmitting a CTS/ACK response
	current      *frame.Aggregate
	currentUni   int // unicast subframes in current (for drop accounting)
	nav          sim.Time
	flushDue     bool
	down         bool // crashed: no tx, no rx, no responses (fault injection)

	difsTimer, slotTimer, respTimer, navTimer, flushTimer sim.Timer
	// The data-path and response-path timers are stored too so Reset can
	// cancel a mid-exchange MAC without leaving an event that would
	// dereference the cleared exchange state.
	sifsTimer, dataTimer, respSifsTimer, respEndTimer sim.Timer

	// Precomputed event callbacks: the DCF schedules thousands of timers per
	// simulated second, so the hot path hands the scheduler these stable
	// funcs instead of allocating a fresh closure (or method value) per At.
	resumeFn, difsFn, slotFn, timeoutFn, startDataFn, dataEndFn, respEndFn, flushFn func()

	// aggScratch/sfScratch back the assembled aggregate. A MAC has at most
	// one exchange bundle in flight and assemble only runs once m.current is
	// nil again, so both recycle between exchanges without copies.
	aggScratch frame.Aggregate
	sfScratch  []frame.Subframe

	dedup    []uint64 // ring of recently delivered frame signatures
	dedupPos int

	// aggHist, when set, observes the body size of every transmitted
	// aggregate. Nil (the default) costs one predictable branch per
	// data transmission and nothing else.
	aggHist *telemetry.Histogram

	c Counters
}

// New creates a MAC for node id and attaches it to the medium.
func New(sched *sim.Scheduler, med *medium.Medium, id medium.NodeID, opts Options, deliver DeliverFunc) *MAC {
	if opts.QueueLimit <= 0 {
		opts.QueueLimit = 50
	}
	m := &MAC{
		id: id, addr: frame.NodeAddr(int(id)),
		sched: sched, med: med, opts: opts,
		deliver:      deliver,
		cw:           opts.CWmin,
		backoffSlots: -1,
	}
	m.resumeFn = m.resumeAccess
	m.difsFn = m.onDIFS
	m.slotFn = m.onSlot
	m.timeoutFn = m.onExchangeTimeout
	m.startDataFn = m.startData
	m.dataEndFn = m.onDataEnd
	m.respEndFn = func() { m.respBusy = false; m.resumeAccess() }
	m.flushFn = func() { m.flushDue = true; m.maybeStartAccess() }
	med.Attach(id, m)
	return m
}

// Addr returns the node's MAC address.
func (m *MAC) Addr() frame.Addr { return m.addr }

// Opts returns the MAC's configuration.
func (m *MAC) Opts() Options { return m.opts }

// Counters returns a snapshot of the node's counters.
func (m *MAC) Counters() Counters { return m.c }

// QueueLen returns the broadcast and unicast queue depths.
func (m *MAC) QueueLen() (broadcast, unicast int) { return len(m.bq), len(m.uq) }

// SetAggSizeHist attaches a telemetry histogram observing the body size
// (bytes) of every transmitted aggregate. A nil histogram handle is
// valid and free; observation itself never allocates, so metrics-off
// runs and golden hashes are untouched either way.
func (m *MAC) SetAggSizeHist(h *telemetry.Histogram) { m.aggHist = h }

// SetDown marks the MAC crashed (true) or recovered (false). A down MAC
// accepts no frames, starts no access cycles, and ignores everything it
// hears — the fault layer pairs SetDown(true) with Reset so the crash
// forgets all volatile state, and link cuts at the topology layer isolate
// the radio. Recovery is just SetDown(false): the MAC restarts from an
// empty, idle state as a rebooted node would.
func (m *MAC) SetDown(down bool) { m.down = down }

// Down reports whether the MAC is crashed.
func (m *MAC) Down() bool { return m.down }

// Reset drops all volatile MAC state: queues, the in-flight exchange,
// backoff and NAV, and every pending timer — including the mid-exchange
// data/response events, which would otherwise fire into the cleared state.
// Counters survive (they describe the run, not the node's uptime). Frames
// already on the air are the medium's business and complete there; the
// reset MAC simply no longer reacts to their outcome.
func (m *MAC) Reset() {
	m.difsTimer.Stop()
	m.slotTimer.Stop()
	m.respTimer.Stop()
	m.navTimer.Stop()
	m.flushTimer.Stop()
	m.sifsTimer.Stop()
	m.dataTimer.Stop()
	m.respSifsTimer.Stop()
	m.respEndTimer.Stop()
	m.c.Drops += len(m.bq) + len(m.uq) + m.currentUni
	m.bq = m.bq[:0]
	m.uq = m.uq[:0]
	m.current = nil
	m.currentUni = 0
	m.state = stIdle
	m.cw = m.opts.CWmin
	m.retries = 0
	m.backoffSlots = -1
	m.inAccess = false
	m.respBusy = false
	m.nav = 0
	m.flushDue = false
}

// PreambleBytesPerTx expresses the preamble+PLCP in byte-equivalents at the
// unicast rate, for the Table 3 size-overhead metric.
func (m *MAC) PreambleBytesPerTx() float64 {
	p := m.med.Params()
	return p.PreamblePLCP.Seconds() * float64(m.opts.UnicastRate.BitsPerSecond()) / 8
}

// Enqueue accepts a frame from the network layer. viaBroadcastQueue routes
// the frame through the broadcast queue (true for broadcast-addressed
// frames and for classified TCP ACKs). It reports false when the queue is
// full and the frame was dropped.
func (m *MAC) Enqueue(out Outgoing, viaBroadcastQueue bool) bool {
	if m.down {
		m.c.QueueDrops++
		return false
	}
	out.seq = m.seq
	m.seq++
	q := &m.uq
	if viaBroadcastQueue {
		q = &m.bq
	}
	if len(*q) >= m.opts.QueueLimit {
		m.c.QueueDrops++
		return false
	}
	*q = append(*q, out)
	m.maybeStartAccess()
	return true
}

func (m *MAC) queued() int { return len(m.bq) + len(m.uq) }

// mediumBusy folds physical carrier sense, NAV, our own responses and our
// own exchange state into one deferral predicate.
func (m *MAC) mediumBusy() bool {
	return m.med.CarrierBusy(m.id) || m.sched.Now() < m.nav || m.respBusy || m.state != stIdle
}

// maybeStartAccess begins a DCF access cycle when there is work to do.
func (m *MAC) maybeStartAccess() {
	if m.down || m.inAccess || m.state != stIdle {
		return
	}
	if m.current == nil {
		if m.queued() == 0 {
			return
		}
		// Delayed BA: hold the floor request until enough frames queue up,
		// bounded by the flush timeout so transfer tails drain.
		if min := m.opts.Scheme.DelayMinFrames; min > 1 && m.queued() < min && !m.flushDue {
			if !m.flushTimer.Pending() {
				m.flushTimer = m.sched.After(m.opts.FlushTimeout, "mac:flush", m.flushFn)
			}
			return
		}
	}
	m.inAccess = true
	m.resumeAccess()
}

// resumeAccess (re)starts the DIFS wait; called at access start and on every
// medium-idle transition.
func (m *MAC) resumeAccess() {
	if !m.inAccess || m.state != stIdle || m.respBusy {
		return
	}
	if m.mediumBusy() {
		m.armNavTimer()
		return
	}
	m.difsTimer.Stop()
	m.difsTimer = m.sched.After(m.opts.DIFS, "mac:difs", m.difsFn)
}

// armNavTimer schedules an access resume at NAV expiry (physical idleness
// produces its own CarrierIdle edge).
func (m *MAC) armNavTimer() {
	if m.sched.Now() >= m.nav {
		return
	}
	if m.navTimer.Pending() {
		return
	}
	m.navTimer = m.sched.At(m.nav, "mac:navExpiry", m.resumeFn)
}

func (m *MAC) onDIFS() {
	if m.mediumBusy() {
		return
	}
	m.c.IFSTime += m.opts.DIFS
	if m.backoffSlots < 0 {
		m.backoffSlots = m.sched.Rand().Intn(m.cw + 1)
	}
	m.tickSlot()
}

func (m *MAC) tickSlot() {
	if m.backoffSlots == 0 {
		m.backoffSlots = -1
		m.transmitNow()
		return
	}
	m.slotTimer = m.sched.After(m.opts.Slot, "mac:slot", m.slotFn)
}

func (m *MAC) onSlot() {
	if m.mediumBusy() {
		return // frozen; resumeAccess will restart from DIFS
	}
	m.backoffSlots--
	m.c.BackoffTime += m.opts.Slot
	m.tickSlot()
}

// freezeAccess cancels pending DIFS/slot timers; the backoff counter value
// is preserved (802.11 backoff freezing).
func (m *MAC) freezeAccess() {
	m.difsTimer.Stop()
	m.slotTimer.Stop()
}

// transmitNow fires when the DCF acquires the floor: assemble (or reuse the
// retry bundle) and launch the exchange.
func (m *MAC) transmitNow() {
	m.inAccess = false
	if m.current == nil {
		m.current = m.assemble()
		m.flushDue = false
	}
	if m.current == nil {
		// DBA gating raced with the queues; try again later.
		m.maybeStartAccess()
		return
	}
	agg := m.current
	if agg.HasUnicast() {
		// Rate adaptation re-evaluates on every attempt, so retransmitted
		// bundles can step down (classic ARF behaviour).
		if rc := m.opts.RateController; rc != nil {
			agg.UnicastRate = rc.TxRate(agg.Unicast[0].Addr1)
		}
		if m.opts.UseRTSCTS {
			m.sendRTS(agg)
			return
		}
	}
	m.sendData(false)
}

// exchangeTail is the on-air time left after the data frame: SIFS+ACK when
// a unicast portion needs acknowledgement.
func (m *MAC) exchangeTail(agg *frame.Aggregate) time.Duration {
	if !agg.HasUnicast() {
		return 0
	}
	ack := frame.Control{Type: frame.TypeAck}
	if m.opts.BlockAck {
		ack.Type = frame.TypeBlockAck
	}
	return m.opts.SIFS + m.med.ControlAirtime(&ack)
}

func (m *MAC) sendRTS(agg *frame.Aggregate) {
	cts := frame.Control{Type: frame.TypeCTS}
	dur := m.opts.SIFS + m.med.ControlAirtime(&cts) +
		m.opts.SIFS + m.med.AggregateAirtime(agg) + m.exchangeTail(agg)
	rts := frame.Control{Type: frame.TypeRTS, Duration: dur, RA: agg.Unicast[0].Addr1, TA: m.addr}
	air := m.med.TransmitControl(m.id, rts)
	m.c.RTSTx++
	m.c.ControlTime += air
	m.state = stAwaitCTS
	timeout := air + m.opts.SIFS + m.med.ControlAirtime(&cts) + m.opts.TimeoutSlack
	m.respTimer = m.sched.After(timeout, "mac:ctsTimeout", m.timeoutFn)
}

// sendData launches m.current (the active exchange bundle); afterCTS marks
// the SIFS-deferred variant. The data-path callbacks read m.current rather
// than capturing the aggregate: it cannot change between here and dataEnd
// (only the ack/timeout handlers replace it, and they are unreachable while
// the frame is still on the air).
func (m *MAC) sendData(afterCTS bool) {
	if afterCTS {
		m.state = stSIFSData
		m.c.IFSTime += 2 * m.opts.SIFS // RTS→CTS and CTS→DATA gaps
		m.sifsTimer = m.sched.After(m.opts.SIFS, "mac:sifsData", m.startDataFn)
	} else {
		m.startData()
	}
}

func (m *MAC) startData() {
	agg := m.current
	m.state = stSending
	m.stampDurations(agg)
	air := m.med.TransmitAggregate(m.id, agg)
	m.accountDataTx(agg, air)
	m.dataTimer = m.sched.After(air, "mac:dataEnd", m.dataEndFn)
}

func (m *MAC) onDataEnd() {
	if !m.current.HasUnicast() {
		m.completeSuccess()
		return
	}
	m.state = stAwaitAck
	ack := frame.Control{Type: frame.TypeAck}
	if m.opts.BlockAck {
		ack.Type = frame.TypeBlockAck
	}
	timeout := m.opts.SIFS + m.med.ControlAirtime(&ack) + m.opts.TimeoutSlack
	m.respTimer = m.sched.After(timeout, "mac:ackTimeout", m.timeoutFn)
}

// stampDurations writes the NAV reservation into every subframe; only the
// first unicast subframe's value is used by receivers, but the prototype
// fills them all (§4.2.1).
func (m *MAC) stampDurations(agg *frame.Aggregate) {
	tail := m.exchangeTail(agg)
	for _, sf := range agg.Unicast {
		sf.Duration = tail
		sf.Retry = m.retries > 0
	}
	for _, sf := range agg.Broadcast {
		sf.Duration = 0
		// Broadcast subframes ride again when the unicast portion
		// retries; mark them so receivers with dedup enabled can drop
		// the repeats.
		sf.Retry = m.retries > 0
	}
}

// frameSig builds the dedup signature of a delivered subframe.
func frameSig(d *frame.DecodedSubframe) uint64 {
	h := crc32.ChecksumIEEE(d.Payload)
	a := d.Addr2
	addr := uint64(a[3])<<16 | uint64(a[4])<<8 | uint64(a[5])
	return uint64(h) | addr<<40
}

// isDuplicate consults and maintains the dedup ring. Only retransmitted
// frames are checked; every delivered frame is recorded.
func (m *MAC) isDuplicate(d *frame.DecodedSubframe) bool {
	if m.opts.DedupWindow <= 0 {
		return false
	}
	sig := frameSig(d)
	if d.Retry {
		for _, s := range m.dedup {
			if s == sig {
				m.c.RxDupes++
				return true
			}
		}
	}
	if len(m.dedup) < m.opts.DedupWindow {
		m.dedup = append(m.dedup, sig)
	} else {
		m.dedup[m.dedupPos] = sig
		m.dedupPos = (m.dedupPos + 1) % m.opts.DedupWindow
	}
	return false
}

func (m *MAC) accountDataTx(agg *frame.Aggregate, air time.Duration) {
	m.c.DataTx++
	if !agg.HasUnicast() {
		m.c.BroadcastOnly++
	}
	m.c.SubframesTx += agg.Subframes()
	m.c.BroadcastSubTx += len(agg.Broadcast)
	m.c.UnicastSubTx += len(agg.Unicast)
	body := int64(agg.Bytes())
	var payload int64
	var payloadTime time.Duration
	for _, sf := range agg.Broadcast {
		payload += int64(len(sf.Payload))
		payloadTime += phy.Airtime(len(sf.Payload), agg.BroadcastRate)
	}
	for _, sf := range agg.Unicast {
		payload += int64(len(sf.Payload))
		payloadTime += phy.Airtime(len(sf.Payload), agg.UnicastRate)
	}
	m.aggHist.Observe(float64(body))
	m.c.BodyBytesTx += body
	m.c.PayloadBytesTx += payload
	m.c.HeaderBytesTx += body - payload
	p := m.med.Params()
	pre := p.PreamblePLCP + p.BroadcastDescDuration(agg.HasBroadcast())
	m.c.PreambleTime += pre
	m.c.PayloadTime += payloadTime
	m.c.HeaderTime += air - pre - payloadTime
}

// notifyRateResult reports the unicast exchange outcome to the rate
// controller.
func (m *MAC) notifyRateResult(ok bool) {
	rc := m.opts.RateController
	if rc == nil || m.current == nil || !m.current.HasUnicast() {
		return
	}
	rc.OnResult(m.current.Unicast[0].Addr1, m.current.UnicastRate, ok)
}

func (m *MAC) onExchangeTimeout() {
	if m.state != stAwaitCTS && m.state != stAwaitAck {
		return
	}
	m.notifyRateResult(false)
	m.state = stIdle
	m.retries++
	if m.retries > m.opts.RetryLimit {
		m.c.Drops += m.currentUni
		m.resetExchange()
		m.maybeStartAccess()
		return
	}
	m.c.Retries++
	m.cw = min(2*m.cw+1, m.opts.CWmax)
	m.inAccess = true
	m.resumeAccess()
}

func (m *MAC) resetExchange() {
	m.current = nil
	m.currentUni = 0
	m.retries = 0
	m.cw = m.opts.CWmin
}

func (m *MAC) completeSuccess() {
	m.state = stIdle
	m.resetExchange()
	m.maybeStartAccess()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// ---- medium.Radio implementation ----

// CarrierBusy implements medium.Radio.
func (m *MAC) CarrierBusy() { m.freezeAccess() }

// CarrierIdle implements medium.Radio.
func (m *MAC) CarrierIdle() { m.resumeAccess() }

// RxControl implements medium.Radio.
func (m *MAC) RxControl(src medium.NodeID, c frame.Control, snrdB float64) {
	if m.down {
		return
	}
	switch c.Type {
	case frame.TypeRTS:
		if c.RA == m.addr {
			m.respondCTS(c)
			return
		}
		m.updateNAV(c.Duration)
	case frame.TypeCTS:
		if m.state == stAwaitCTS && c.RA == m.addr {
			m.respTimer.Stop()
			m.c.ControlTime += m.med.ControlAirtime(&c)
			if rc := m.opts.RateController; rc != nil && m.current.HasUnicast() {
				// Hydra's explicit-feedback RTS/CTS: with reciprocal
				// links, the CTS reception SNR stands in for the
				// receiver's RTS measurement.
				rc.OnFeedback(m.current.Unicast[0].Addr1, snrdB)
			}
			m.sendData(true)
			return
		}
		m.updateNAV(c.Duration)
	case frame.TypeAck:
		if m.state == stAwaitAck && c.RA == m.addr {
			m.respTimer.Stop()
			m.c.ControlTime += m.med.ControlAirtime(&c)
			m.c.IFSTime += m.opts.SIFS // DATA→ACK gap
			m.notifyRateResult(true)
			m.completeSuccess()
		}
	case frame.TypeBlockAck:
		if m.state == stAwaitAck && c.RA == m.addr {
			m.respTimer.Stop()
			m.c.ControlTime += m.med.ControlAirtime(&c)
			m.c.IFSTime += m.opts.SIFS
			m.handleBlockAck(c.Bitmap)
		}
	}
}

// respondCTS answers an RTS addressed to us when we are free to do so.
func (m *MAC) respondCTS(rts frame.Control) {
	if m.state != stIdle || m.respBusy {
		return
	}
	if m.sched.Now() < m.nav {
		// 802.11: a node with an active NAV stays silent on RTS. (The
		// physical carrier is still accounted busy with the RTS itself at
		// delivery time, so only the NAV matters here.)
		return
	}
	ctsDur := rts.Duration - m.opts.SIFS
	cts := frame.Control{Type: frame.TypeCTS, RA: rts.TA}
	ctsDur -= m.med.ControlAirtime(&cts)
	if ctsDur < 0 {
		ctsDur = 0
	}
	cts.Duration = ctsDur
	m.transmitResponse(cts)
	m.c.CTSTx++
}

// transmitResponse sends a CTS/ACK SIFS after the triggering frame,
// suspending our own access cycle for the duration.
func (m *MAC) transmitResponse(c frame.Control) {
	m.respBusy = true
	m.freezeAccess()
	m.respSifsTimer = m.sched.After(m.opts.SIFS, "mac:respSIFS", func() {
		air := m.med.TransmitControl(m.id, c)
		m.respEndTimer = m.sched.After(air, "mac:respEnd", m.respEndFn)
	})
}

// handleBlockAck removes acknowledged subframes; unacked ones retry.
func (m *MAC) handleBlockAck(bitmap uint16) {
	agg := m.current
	var remain []*frame.Subframe
	for i, sf := range agg.Unicast {
		if i < 16 && bitmap&(1<<uint(i)) != 0 {
			continue
		}
		remain = append(remain, sf)
	}
	m.notifyRateResult(len(remain) == 0)
	m.state = stIdle
	if len(remain) == 0 {
		m.completeSuccess()
		return
	}
	// Partial: keep only the unacknowledged subframes; broadcasts are not
	// repeated (they were delivered with the first attempt).
	agg.Unicast = remain
	agg.Broadcast = nil
	m.currentUni = len(remain)
	m.retries++
	if m.retries > m.opts.RetryLimit {
		m.c.Drops += len(remain)
		m.resetExchange()
		m.maybeStartAccess()
		return
	}
	m.c.Retries++
	m.cw = min(2*m.cw+1, m.opts.CWmax)
	m.inAccess = true
	m.resumeAccess()
}

// RxAggregate implements medium.Radio: the §4.2.2 receive process. dec is
// the medium's shared decode of the frame: it is read, never written.
func (m *MAC) RxAggregate(_ medium.NodeID, _ frame.PHYHeader, _ []byte, dec *frame.DecodedAggregate) {
	if m.down {
		return
	}
	// Broadcast portion: deliver each CRC-passing subframe immediately.
	for _, d := range dec.Broadcast {
		if !d.CRCOK {
			m.c.RxDropsCRC++
			continue
		}
		if d.Addr1 != m.addr && !d.Addr1.IsBroadcast() {
			// Overheard classified TCP ACK: dropped, never passed up
			// (passing it up would duplicate the ACK at the IP layer).
			m.c.RxDropsAddr++
			continue
		}
		if m.isDuplicate(&d) {
			continue
		}
		m.c.RxDelivered++
		if m.deliver != nil {
			m.deliver(d, true)
		}
	}
	if dec.BroadcastLost > 0 {
		m.c.RxDropsCRC++
	}

	// Unicast portion: all-or-nothing.
	if len(dec.Unicast) == 0 && dec.UnicastLost == 0 {
		return
	}
	mine, addrKnown := false, false
	for _, d := range dec.Unicast {
		if d.CRCOK {
			mine = d.Addr1 == m.addr
			addrKnown = true
			break
		}
	}
	if !addrKnown {
		// Nothing decodable: stay silent, the sender will retry.
		m.c.RxBundleFails++
		return
	}
	if !mine {
		m.c.RxDropsAddr += len(dec.Unicast)
		// Virtual carrier sense from the first unicast subframe (§4.2.1).
		m.updateNAV(dec.Unicast[0].Duration)
		return
	}

	if m.opts.BlockAck {
		m.receiveWithBlockAck(dec)
		return
	}

	allOK := dec.UnicastLost == 0
	for _, d := range dec.Unicast {
		if !d.CRCOK || d.Addr1 != m.addr {
			allOK = false
			break
		}
	}
	if !allOK {
		m.c.RxBundleFails++
		m.c.RxDropsCRC += len(dec.Unicast)
		return
	}
	for _, d := range dec.Unicast {
		if m.isDuplicate(&d) {
			continue // still acknowledged: the sender needs the ACK
		}
		m.c.RxDelivered++
		if m.deliver != nil {
			m.deliver(d, false)
		}
	}
	m.c.AckTx++
	m.transmitResponse(frame.Control{Type: frame.TypeAck, RA: dec.Unicast[0].Addr2})
}

// receiveWithBlockAck delivers passing subframes and acknowledges them with
// a bitmap (the paper's §7 extension).
func (m *MAC) receiveWithBlockAck(dec *frame.DecodedAggregate) {
	var bitmap uint16
	var ta frame.Addr
	for i, d := range dec.Unicast {
		if !d.CRCOK || d.Addr1 != m.addr {
			m.c.RxDropsCRC++
			continue
		}
		if i < 16 {
			bitmap |= 1 << uint(i)
		}
		ta = d.Addr2
		if m.isDuplicate(&d) {
			continue
		}
		m.c.RxDelivered++
		if m.deliver != nil {
			m.deliver(d, false)
		}
	}
	if bitmap == 0 {
		m.c.RxBundleFails++
		return
	}
	m.c.AckTx++
	m.transmitResponse(frame.Control{Type: frame.TypeBlockAck, RA: ta, Bitmap: bitmap})
}

func (m *MAC) updateNAV(d time.Duration) {
	if d <= 0 {
		return
	}
	until := m.sched.Now() + d
	if until > m.nav {
		m.nav = until
		if m.inAccess {
			m.freezeAccess()
			m.armNavTimer()
		}
	}
}

// String identifies the MAC in traces.
func (m *MAC) String() string {
	return fmt.Sprintf("mac(%d,%s)", int(m.id), m.opts.Scheme.Name())
}
