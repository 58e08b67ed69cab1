package sim

import (
	"container/heap"
	"context"
	"fmt"
)

// Event is a scheduled callback. Events with equal times fire in the order
// they were scheduled (FIFO tie-breaking), which keeps runs deterministic.
type Event struct {
	At     Time
	Name   string // for tracing and error messages
	Fire   func()
	fn     BoundFn // closure-free callback (AtFunc path)
	a0, a1 int64   // pre-bound arguments for fn
	seq    uint64
	pooled bool // recycled onto the free list after firing
}

// BoundFn is the closure-free callback form used by AtFunc: a pre-bound
// function plus two integer arguments, so hot schedulers (the TDMA slot
// chain) avoid allocating a fresh closure per event.
type BoundFn func(a0, a1 int64)

type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].At != q[j].At {
		return q[i].At < q[j].At
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

func (q *eventQueue) Push(x any) { *q = append(*q, x.(*Event)) }

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Scheduler is a deterministic discrete-event scheduler. It is not safe for
// concurrent use: the DECOS simulator is single-threaded by design so that a
// run is exactly reproducible from its seed.
type Scheduler struct {
	now       Time
	queue     eventQueue
	nextSeq   uint64
	fired     uint64
	scheduled uint64
	pooled    uint64

	// deadline is the horizon of the active RunUntil call; InlineTo
	// refuses to advance the clock past it so inlined work never overruns
	// the caller's bound.
	deadline Time

	// free is the pool of recycled AtFunc events.
	free []*Event
}

// maxTime is the open-ended deadline used outside RunUntil.
const maxTime = Time(1<<63 - 1)

// NewScheduler returns a scheduler positioned at time zero.
func NewScheduler() *Scheduler {
	return &Scheduler{deadline: maxTime}
}

// Now returns the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// Fired returns the number of events executed so far, for reporting.
func (s *Scheduler) Fired() uint64 { return s.fired }

// Stats are the scheduler's lifetime event counters — the simulator's own
// telemetry. Reading them costs nothing; maintaining them is plain integer
// increments on paths that already touch the same cache lines.
type Stats struct {
	// Scheduled counts events enqueued (At and AtFunc; inlined
	// self-rescheduling via InlineTo does not enqueue and is visible as
	// Fired - Scheduled growth instead).
	Scheduled uint64
	// Fired counts events executed, including inlined advances.
	Fired uint64
	// Pooled counts AtFunc events recycled from the free list rather than
	// freshly allocated — the hit rate of the zero-allocation event pool.
	Pooled uint64
	// Pending is the current queue depth.
	Pending int
}

// Stats returns the current event counters. Not safe for use concurrently
// with the (single-threaded) simulation loop.
func (s *Scheduler) Stats() Stats {
	return Stats{Scheduled: s.scheduled, Fired: s.fired, Pooled: s.pooled, Pending: len(s.queue)}
}

// At schedules fire to run at time at. Scheduling in the past panics: it is
// always a simulator bug, never a recoverable condition.
func (s *Scheduler) At(at Time, name string, fire func()) {
	if at < s.now {
		panic(fmt.Sprintf("sim: event %q scheduled at %v before now %v", name, at, s.now))
	}
	e := &Event{At: at, Name: name, Fire: fire, seq: s.nextSeq}
	s.nextSeq++
	s.scheduled++
	heap.Push(&s.queue, e)
}

// AtFunc schedules a closure-free callback: fn(a0, a1) runs at time at. The
// backing Event is drawn from a free list and recycled immediately after
// firing. Use it for self-rescheduling hot paths.
func (s *Scheduler) AtFunc(at Time, name string, fn BoundFn, a0, a1 int64) {
	if at < s.now {
		panic(fmt.Sprintf("sim: event %q scheduled at %v before now %v", name, at, s.now))
	}
	var e *Event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free = s.free[:n-1]
		*e = Event{pooled: true}
		s.pooled++
	} else {
		e = &Event{pooled: true}
	}
	e.At, e.Name, e.fn, e.a0, e.a1, e.seq = at, name, fn, a0, a1, s.nextSeq
	s.nextSeq++
	s.scheduled++
	heap.Push(&s.queue, e)
}

// InlineTo advances the clock directly to t without going through the event
// queue — the fast path for a hot self-rescheduling callback that would
// otherwise push and immediately pop its own next event. It succeeds only
// when doing so is indistinguishable from scheduling and firing: no pending
// event is due at or before t and t does not overrun the active RunUntil
// deadline. On success the clock moves to t, the fired counter advances as
// if an event ran, and the caller proceeds inline; on failure the caller
// must schedule normally.
func (s *Scheduler) InlineTo(t Time) bool {
	if t < s.now || t > s.deadline {
		return false
	}
	if len(s.queue) > 0 && s.queue[0].At <= t {
		return false
	}
	s.now = t
	s.fired++
	return true
}

// Reset returns the scheduler to its just-constructed state, keeping the
// event pool warm: every pending event is dropped, the clock returns to
// zero and the counters restart.
func (s *Scheduler) Reset() {
	s.DropPending()
	s.now, s.nextSeq, s.fired, s.scheduled, s.pooled = 0, 0, 0, 0, 0
	s.deadline = maxTime
}

// Step fires the single next event, advancing time to it. It returns false
// when the queue is empty.
func (s *Scheduler) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	e := heap.Pop(&s.queue).(*Event)
	s.now = e.At
	s.fired++
	if e.Fire != nil {
		e.Fire()
	} else if e.fn != nil {
		e.fn(e.a0, e.a1)
	}
	if e.pooled {
		e.Fire, e.fn, e.Name = nil, nil, ""
		s.free = append(s.free, e)
	}
	return true
}

// ctxPollEvents is how many events RunUntil fires between context polls.
// Amortizing the poll keeps the dispatch loop at its bare cost while
// bounding cancellation latency to well under a simulated round.
const ctxPollEvents = 1024

// RunUntil fires events in order until the queue is empty or the next event
// would be after deadline, polling ctx every ctxPollEvents fired events. On
// completion the clock is left at the later of the last fired event and
// deadline, and nil is returned. On cancellation the loop stops after the
// in-flight event with the clock left mid-run (it does NOT jump to the
// deadline — the caller observes exactly how far the run got), and
// ctx.Err() is returned.
func (s *Scheduler) RunUntil(ctx context.Context, deadline Time) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.deadline = deadline
	defer func() { s.deadline = maxTime }()
	poll := ctxPollEvents
	for len(s.queue) > 0 && s.queue[0].At <= deadline {
		s.Step()
		if poll--; poll == 0 {
			poll = ctxPollEvents
			if err := ctx.Err(); err != nil {
				return err
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if s.now < deadline {
		s.now = deadline
	}
	return nil
}
