// Bench harness for the MediumTx workload, in non-test code so
// cmd/aggbench records the exact same measurement the in-package
// BenchmarkMediumTx runs — the committed baseline and the CI bench gate
// then compare like with like.
package medium

import (
	"time"

	"aggmac/internal/frame"
	"aggmac/internal/phy"
	"aggmac/internal/sim"
)

type nopRadio struct{}

func (nopRadio) CarrierBusy()                                                         {}
func (nopRadio) CarrierIdle()                                                         {}
func (nopRadio) RxControl(NodeID, frame.Control, float64)                             {}
func (nopRadio) RxAggregate(NodeID, frame.PHYHeader, []byte, *frame.DecodedAggregate) {}

// TxBench is the medium scaling workload: a k×k grid mesh wired at the
// 4-neighborhood (degree ≤ 4 however large the grid grows) whose corners
// and edge midpoints transmit concurrently — spatially separate collision
// domains, as in a mesh carrying many flows. One Burst is the benchmark's
// unit of work: eight staggered control transmissions plus a full drain of
// the scheduler (launch, overlapping-collision marking, delivery to the
// audience, carrier release).
type TxBench struct {
	sched *sim.Scheduler
	m     *Medium
	txs   []func()
}

// NewTxBench builds the k×k grid workload.
func NewTxBench(k int) *TxBench {
	s := sim.NewScheduler(1)
	p := phy.DefaultParams()
	m := NewUnconnected(s, p, k*k)
	id := func(r, c int) NodeID { return NodeID(r*k + c) }
	for r := 0; r < k; r++ {
		for c := 0; c < k; c++ {
			for _, d := range [][2]int{{0, 1}, {1, 0}} {
				nr, nc := r+d[0], c+d[1]
				if nr < 0 || nr >= k || nc < 0 || nc >= k {
					continue
				}
				m.SetConnected(id(r, c), id(nr, nc), true)
			}
			m.Attach(id(r, c), nopRadio{})
		}
	}
	h := k / 2
	srcs := []NodeID{
		0, NodeID(k - 1), NodeID(k * (k - 1)), NodeID(k*k - 1), // corners
		NodeID(h), NodeID(k * h), NodeID(k*h + k - 1), NodeID(k*(k-1) + h), // edge midpoints
	}
	ctrl := frame.Control{Type: frame.TypeCTS, RA: frame.Broadcast}
	tb := &TxBench{sched: s, m: m}
	for _, src := range srcs {
		src := src
		tb.txs = append(tb.txs, func() { m.TransmitControl(src, ctrl) })
	}
	return tb
}

// Burst launches the workload's transmissions a microsecond apart and
// drains the scheduler.
func (tb *TxBench) Burst() {
	for j, tx := range tb.txs {
		tb.sched.After(time.Duration(j)*time.Microsecond, "tx", tx)
	}
	tb.sched.Run()
}

// TxPerBurst is the number of transmissions one Burst performs.
func (tb *TxBench) TxPerBurst() int { return len(tb.txs) }

// SimNow is the simulated time consumed so far, for simsec/sec reporting.
func (tb *TxBench) SimNow() time.Duration { return time.Duration(tb.sched.Now()) }
