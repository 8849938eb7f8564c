package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	s.After(30*time.Microsecond, "c", func() { got = append(got, 3) })
	s.After(10*time.Microsecond, "a", func() { got = append(got, 1) })
	s.After(20*time.Microsecond, "b", func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 30*time.Microsecond {
		t.Fatalf("Now = %v, want 30µs", s.Now())
	}
}

func TestSchedulerFIFOAtSameInstant(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Millisecond, "tie", func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events ran out of order: %v", got)
		}
	}
}

func TestSchedulerNestedScheduling(t *testing.T) {
	s := NewScheduler(1)
	var fired []string
	s.After(time.Millisecond, "outer", func() {
		fired = append(fired, "outer")
		s.After(time.Millisecond, "inner", func() { fired = append(fired, "inner") })
	})
	s.Run()
	if len(fired) != 2 || fired[1] != "inner" {
		t.Fatalf("nested scheduling failed: %v", fired)
	}
	if s.Now() != 2*time.Millisecond {
		t.Fatalf("Now = %v, want 2ms", s.Now())
	}
}

func TestTimerStop(t *testing.T) {
	s := NewScheduler(1)
	ran := false
	tm := s.After(time.Millisecond, "x", func() { ran = true })
	if !tm.Pending() {
		t.Fatal("timer should be pending before Stop")
	}
	if !tm.Stop() {
		t.Fatal("Stop should report true for a pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	if tm.Pending() {
		t.Fatal("timer should not be pending after Stop")
	}
	s.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	s := NewScheduler(1)
	tm := s.After(time.Millisecond, "x", func() {})
	s.Run()
	if tm.Stop() {
		t.Fatal("Stop after fire should report false")
	}
	if tm.Pending() {
		t.Fatal("fired timer should not be pending")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := NewScheduler(1)
	s.After(time.Millisecond, "x", func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		s.At(0, "past", func() {})
	})
	s.Run()
}

func TestRunUntil(t *testing.T) {
	s := NewScheduler(1)
	var fired []string
	s.After(time.Millisecond, "a", func() { fired = append(fired, "a") })
	s.After(3*time.Millisecond, "b", func() { fired = append(fired, "b") })
	s.RunUntil(2 * time.Millisecond)
	if len(fired) != 1 || fired[0] != "a" {
		t.Fatalf("RunUntil fired %v, want [a]", fired)
	}
	if s.Now() != 2*time.Millisecond {
		t.Fatalf("Now = %v, want 2ms", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", s.Pending())
	}
	s.Run()
	if len(fired) != 2 {
		t.Fatalf("remaining event did not run: %v", fired)
	}
}

// RunUntil must never execute an event past its deadline, even when the
// queue head at the deadline check is a cancelled timer. The lazy-cancel
// scheduler had exactly this bug: Step() reaped tombstones and then ran the
// next live event unconditionally, so a cancelled head with at <= end let
// one event beyond end slip through.
func TestRunUntilStopsAtDeadlineWithCancelledHead(t *testing.T) {
	s := NewScheduler(1)
	tm := s.After(time.Millisecond, "cancelled-head", func() {})
	ran := false
	s.After(5*time.Millisecond, "beyond", func() { ran = true })
	tm.Stop()
	s.RunUntil(2 * time.Millisecond)
	if ran {
		t.Fatal("RunUntil executed an event past its deadline")
	}
	if s.Now() != 2*time.Millisecond {
		t.Fatalf("Now = %v, want 2ms", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", s.Pending())
	}
}

func TestRunUntilEmptyAdvancesClock(t *testing.T) {
	s := NewScheduler(1)
	s.RunUntil(5 * time.Second)
	if s.Now() != 5*time.Second {
		t.Fatalf("Now = %v, want 5s", s.Now())
	}
}

func TestHalt(t *testing.T) {
	s := NewScheduler(1)
	n := 0
	s.After(time.Millisecond, "a", func() { n++; s.Halt() })
	s.After(2*time.Millisecond, "b", func() { n++ })
	s.Run()
	if n != 1 {
		t.Fatalf("Halt did not stop the loop: ran %d events", n)
	}
	s.Run()
	if n != 2 {
		t.Fatalf("second Run did not resume: ran %d events", n)
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []int64 {
		s := NewScheduler(seed)
		var trace []int64
		var step func()
		step = func() {
			trace = append(trace, int64(s.Now()), s.rng.Int63n(1000))
			if len(trace) < 200 {
				s.After(time.Duration(1+s.rng.Intn(100))*time.Microsecond, "step", step)
			}
		}
		s.After(0, "start", step)
		s.Run()
		return trace
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

// Property: for any set of delays, events fire in nondecreasing time order
// and the clock ends at the max delay.
func TestPropertyEventOrder(t *testing.T) {
	f := func(delaysRaw []uint16) bool {
		if len(delaysRaw) == 0 {
			return true
		}
		s := NewScheduler(7)
		var fireTimes []Time
		var maxd time.Duration
		for _, d := range delaysRaw {
			dur := time.Duration(d) * time.Microsecond
			if dur > maxd {
				maxd = dur
			}
			s.After(dur, "p", func() { fireTimes = append(fireTimes, s.Now()) })
		}
		s.Run()
		if len(fireTimes) != len(delaysRaw) {
			return false
		}
		for i := 1; i < len(fireTimes); i++ {
			if fireTimes[i] < fireTimes[i-1] {
				return false
			}
		}
		return s.Now() == maxd
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling an arbitrary subset of timers means exactly the
// complement fires.
func TestPropertyCancellation(t *testing.T) {
	f := func(delays []uint8, cancelMask []bool) bool {
		s := NewScheduler(3)
		fired := make([]bool, len(delays))
		timers := make([]Timer, len(delays))
		for i, d := range delays {
			i := i
			timers[i] = s.After(time.Duration(d)*time.Microsecond, "p", func() { fired[i] = true })
		}
		cancelled := make([]bool, len(delays))
		for i := range timers {
			if i < len(cancelMask) && cancelMask[i] {
				timers[i].Stop()
				cancelled[i] = true
			}
		}
		s.Run()
		for i := range fired {
			if fired[i] == cancelled[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

// Stopping a timer must free its queue slot immediately (no lazy-cancel
// tombstones lingering until the deadline).
func TestStopReapsImmediately(t *testing.T) {
	s := NewScheduler(1)
	tms := make([]Timer, 10)
	for i := range tms {
		tms[i] = s.After(time.Duration(i+1)*time.Millisecond, "x", func() {})
	}
	if s.Pending() != 10 {
		t.Fatalf("Pending = %d, want 10", s.Pending())
	}
	for i := 0; i < 5; i++ {
		tms[2*i].Stop()
	}
	if s.Pending() != 5 {
		t.Fatalf("Pending after 5 Stops = %d, want 5 (cancelled events must be reaped in place)", s.Pending())
	}
	n := 0
	for s.Step() {
		n++
	}
	if n != 5 {
		t.Fatalf("ran %d events, want 5", n)
	}
}

// A Timer handle from a fired or stopped event must stay inert even after
// its slab slot is reused by a new event (generation stamps).
func TestStaleTimerCannotTouchReusedSlot(t *testing.T) {
	s := NewScheduler(1)
	old := s.After(time.Millisecond, "old", func() {})
	if !old.Stop() {
		t.Fatal("first Stop should succeed")
	}
	ran := false
	fresh := s.After(2*time.Millisecond, "fresh", func() { ran = true })
	if old.Stop() {
		t.Fatal("stale handle stopped the slot's new occupant")
	}
	if old.Pending() {
		t.Fatal("stale handle reports pending")
	}
	if !fresh.Pending() {
		t.Fatal("fresh timer should be pending")
	}
	s.Run()
	if !ran {
		t.Fatal("fresh event did not run")
	}
}

// The zero Timer is valid: Stop and Pending are no-ops.
func TestZeroTimer(t *testing.T) {
	var tm Timer
	if tm.Stop() {
		t.Fatal("zero Timer Stop should report false")
	}
	if tm.Pending() {
		t.Fatal("zero Timer should not be pending")
	}
}

// Steady-state scheduling must not allocate: slots recycle through the free
// list and Timer handles are values.
func TestSteadyStateAllocFree(t *testing.T) {
	s := NewScheduler(1)
	fn := func() {}
	// Prime the slab.
	for i := 0; i < 64; i++ {
		s.After(time.Duration(i)*time.Microsecond, "prime", fn)
	}
	for s.Step() {
	}
	allocs := testing.AllocsPerRun(1000, func() {
		tm := s.After(time.Microsecond, "steady", fn)
		_ = tm.Pending()
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule+fire allocates %v times per op, want 0", allocs)
	}

	// A handler that re-arms itself refills the fired root in place.
	for i := 0; i < 16; i++ {
		s.After(time.Duration(i+1)*time.Second, "long", fn)
	}
	var rearm func()
	rearm = func() { s.After(20*time.Microsecond, "rearm", rearm) }
	s.After(0, "rearm", rearm)
	allocs = testing.AllocsPerRun(1000, func() { s.Step() })
	if allocs != 0 {
		t.Fatalf("self-re-arming handler allocates %v times per event, want 0", allocs)
	}
	if s.Pending() != 17 {
		t.Fatalf("Pending = %d after re-arming steps, want 17", s.Pending())
	}
}

// schedModel is a reference for the scheduler's observable state: pending
// events kept unordered and popped by a linear (at, seq) minimum search, and
// slab slots handed out from a LIFO free list, the fired slot released
// before its handler runs.
type schedModel struct {
	now   Time
	seq   uint64
	live  []modelEvent
	slots int
	free  []int32
}

type modelEvent struct {
	at   Time
	seq  uint64
	id   int
	slot int32
}

func (m *schedModel) at(at Time, id int) int32 {
	var slot int32
	if n := len(m.free); n > 0 {
		slot = m.free[n-1]
		m.free = m.free[:n-1]
	} else {
		slot = int32(m.slots)
		m.slots++
	}
	m.live = append(m.live, modelEvent{at: at, seq: m.seq, id: id, slot: slot})
	m.seq++
	return slot
}

func (m *schedModel) find(id int) int {
	for i, e := range m.live {
		if e.id == id {
			return i
		}
	}
	return -1
}

func (m *schedModel) remove(i int) modelEvent {
	e := m.live[i]
	m.live = append(m.live[:i], m.live[i+1:]...)
	m.free = append(m.free, e.slot)
	return e
}

func (m *schedModel) stop(id int) bool {
	if i := m.find(id); i >= 0 {
		m.remove(i)
		return true
	}
	return false
}

func (m *schedModel) pop() (modelEvent, bool) {
	if len(m.live) == 0 {
		return modelEvent{}, false
	}
	best := 0
	for i, e := range m.live {
		if b := m.live[best]; e.at < b.at || e.at == b.at && e.seq < b.seq {
			best = i
		}
	}
	e := m.remove(best)
	m.now = e.at
	return e, true
}

// Property: handlers that act on the scheduler mid-event — scheduling none,
// one or several events (some at the same instant), stopping other timers
// (then scheduling, so a stopped slot is reused first), and reading
// Pending, PoolStats and Timer.Pending — see exactly what a reference model
// sees, and the scheduler pops the model's order with the model's clock,
// slot assignment and pool counts after every step.
func TestPropertyMidEventActionsMatchModel(t *testing.T) {
	f := func(seed int64, nInit uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewScheduler(1)
		m := &schedModel{}
		var timers []Timer
		ok := true
		check := func(what string) {
			slots, free, pending := s.PoolStats()
			if s.Pending() != len(m.live) || pending != len(m.live) || slots != m.slots || free != len(m.free) {
				t.Logf("%s: Pending %d PoolStats (%d,%d,%d), model (%d,%d,%d)",
					what, s.Pending(), slots, free, pending, m.slots, len(m.free), len(m.live))
				ok = false
			}
			if len(timers) > 0 {
				id := rng.Intn(len(timers))
				if timers[id].Pending() != (m.find(id) >= 0) {
					t.Logf("%s: timer %d Pending %v, model %v", what, id, timers[id].Pending(), m.find(id) >= 0)
					ok = false
				}
			}
		}
		var fired int
		var handler func(id int) func()
		schedule := func(d time.Duration) {
			id := len(timers)
			tm := s.After(d, "p", handler(id))
			if slot := m.at(s.Now()+d, id); tm.slot != slot {
				t.Logf("event %d got slot %d, model %d", id, tm.slot, slot)
				ok = false
			}
			timers = append(timers, tm)
		}
		delay := func() time.Duration {
			switch rng.Intn(4) {
			case 0:
				return 0 // same instant: must run after the current event
			case 1:
				return time.Duration(rng.Intn(50)) * time.Microsecond
			case 2:
				return 20 * time.Microsecond
			default:
				return time.Duration(1+rng.Intn(1000)) * time.Millisecond
			}
		}
		stopOne := func() {
			if len(timers) == 0 {
				return
			}
			id := rng.Intn(len(timers))
			if got, want := timers[id].Stop(), m.stop(id); got != want {
				t.Logf("Stop(%d) = %v, model %v", id, got, want)
				ok = false
			}
		}
		handler = func(id int) func() {
			return func() {
				fired = id
				check("handler entry")
				if len(timers) > 400 {
					return // let the queue drain
				}
				for k := rng.Intn(5); k > 0; k-- {
					switch rng.Intn(4) {
					case 0, 1:
						schedule(delay())
					case 2:
						stopOne()
					default:
						stopOne()
						schedule(delay())
					}
					check("handler op")
				}
			}
		}
		for i := 0; i < int(nInit%32)+1; i++ {
			schedule(delay())
		}
		check("initial")
		for ok {
			want, more := m.pop()
			if s.Step() != more {
				t.Logf("Step reported %v, model has more=%v", !more, more)
				return false
			}
			if !more {
				break
			}
			if fired != want.id || s.Now() != want.at || m.now != want.at {
				t.Logf("fired %d at %v, model %d at %v", fired, s.Now(), want.id, want.at)
				return false
			}
			check("after step")
			if rng.Intn(8) == 0 {
				schedule(delay()) // between steps, outside any handler
				check("outside op")
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

// A wall-budget panic fires before the handler runs and leaves the queue
// exact: the fired event is gone, every other event is still pending, and
// the run can resume.
func TestWallBudgetLeavesPendingExact(t *testing.T) {
	s := NewScheduler(1)
	const n = 5000
	ran := 0
	for i := 0; i < n; i++ {
		s.After(time.Duration(i)*time.Microsecond, "x", func() { ran++ })
	}
	s.SetWallBudget(time.Nanosecond)
	func() {
		defer func() {
			if _, ok := recover().(*WallBudgetError); !ok {
				t.Fatal("1 ns wall budget did not raise a *WallBudgetError")
			}
		}()
		s.Run()
	}()
	if ran != 4095 || s.EventsRun() != 4096 {
		t.Fatalf("ran %d handlers over %d events before the budget fired, want 4095 over 4096", ran, s.EventsRun())
	}
	slots, free, pending := s.PoolStats()
	if s.Pending() != n-4096 || pending != n-4096 || slots != n || free != 4096 {
		t.Fatalf("after the budget: Pending %d, PoolStats (%d,%d,%d), want %d and (%d,4096,%d)",
			s.Pending(), slots, free, pending, n-4096, n, n-4096)
	}
	s.SetWallBudget(0)
	s.Run()
	if ran != n-1 || s.Pending() != 0 {
		t.Fatalf("resumed run: %d handlers ran, %d pending; want %d and 0", ran, s.Pending(), n-1)
	}
}

// Property: interleaving schedules and cancellations at random always pops
// the survivors in exact (at, seq) order — the heap invariant under Remove.
func TestPropertyHeapOrderUnderChurn(t *testing.T) {
	f := func(ops []uint16) bool {
		s := NewScheduler(9)
		type rec struct {
			at  Time
			seq int
		}
		var live []rec
		var timers []Timer
		seq := 0
		for _, op := range ops {
			if op%5 == 4 && len(timers) > 0 {
				i := int(op/5) % len(timers)
				if timers[i].Stop() {
					// Drop the matching live record (same index: timers
					// and live grow in lockstep and Stop is idempotent).
					live[i].seq = -1
				}
				continue
			}
			at := time.Duration(op%1000) * time.Microsecond
			k := seq
			seq++
			live = append(live, rec{at: at, seq: k})
			timers = append(timers, s.After(at, "p", func() {}))
		}
		var want []rec
		for _, r := range live {
			if r.seq >= 0 {
				want = append(want, r)
			}
		}
		// Expected order: by (at, seq).
		for i := 1; i < len(want); i++ {
			for j := i; j > 0 && (want[j].at < want[j-1].at ||
				(want[j].at == want[j-1].at && want[j].seq < want[j-1].seq)); j-- {
				want[j], want[j-1] = want[j-1], want[j]
			}
		}
		var got []Time
		for s.Step() {
			got = append(got, s.Now())
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i].at {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSchedulerChurn(b *testing.B) {
	s := NewScheduler(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.After(time.Microsecond, "bench", func() {})
		s.Step()
	}
}

func BenchmarkSchedulerStopChurn(b *testing.B) {
	s := NewScheduler(1)
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tm := s.After(time.Microsecond, "bench", fn)
		tm.Stop()
	}
}

// BenchmarkSchedulerRearm is shaped like a DCF backoff: about 100 long
// timers stay pending (TCP retransmission and flow timers) while a handler
// re-arms itself one 20 µs slot ahead, so every op fires the root and
// schedules its successor.
func BenchmarkSchedulerRearm(b *testing.B) {
	s := NewScheduler(1)
	fn := func() {}
	for i := 0; i < 100; i++ {
		s.After(time.Duration(i+1)*time.Hour, "long", fn)
	}
	var rearm func()
	rearm = func() { s.After(20*time.Microsecond, "rearm", rearm) }
	s.After(0, "rearm", rearm)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}
