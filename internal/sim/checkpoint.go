package sim

import (
	"errors"
	"fmt"

	"decos/internal/ckpt"
)

// Checkpoint support for the simulation substrate. A checkpoint is taken
// at a round boundary (between the last slot event of round R and the
// first of round R+1), so the scheduler's semantic state is exactly the
// clock: pending events are reconstructed by the owning subsystems (the
// TT bus re-arms its slot chain, the fault injector re-arms its tracked
// timers), and the event counters (fired/scheduled/pooled) are telemetry,
// not semantics — the InlineTo fast path makes them depend on dispatch
// history, so they are deliberately excluded from the wire format.

// Code implements ckpt.Snapshotter: the current time. Restoring positions
// a freshly built scheduler at the checkpointed time and drops every
// pending event — the subsystems that owned them re-arm their own
// continuations after their state is restored.
func (s *Scheduler) Code(c *ckpt.Coder) error {
	t := s.now
	ckpt.Varint(c, &t)
	if c.Decoding() && c.Err() == nil {
		if t < s.now {
			return fmt.Errorf("sim: checkpoint time %v before current %v", t, s.now)
		}
		s.DropPending()
		s.now = t
	}
	return c.Err()
}

// DropPending discards every queued event. Pooled events are returned to
// the free list so a restored scheduler keeps the pool warm.
func (s *Scheduler) DropPending() {
	for _, e := range s.queue {
		if e.pooled {
			e.Fire, e.fn, e.Name = nil, nil, ""
			s.free = append(s.free, e)
		}
	}
	s.queue = s.queue[:0]
}

// Code implements ckpt.Snapshotter: every open named stream's generator
// state, sorted by name so the encoding is canonical regardless of open
// order. Restoring overwrites the named streams in place; a stream not
// yet open is opened first (Stream derives the seed, then the captured
// state replaces it), so a stream first drawn from mid-run is restored
// even if the reconstruction has not touched it yet.
func (st *Streams) Code(c *ckpt.Coder) error {
	ckpt.SortedMap(c, &st.open, 1<<20, (*ckpt.Coder).String, func(c *ckpt.Coder, name string, s **stream) {
		if c.Decoding() {
			st.Stream(name)
			*s = st.open[name]
		}
		for i := range (*s).s {
			c.Uint64(&(*s).s[i])
		}
		if (*s).s == [4]uint64{} {
			c.Fail(errors.New("sim: checkpoint stream state is all zero"))
		}
	})
	return c.Err()
}
