package sim

import (
	"context"
	"testing"
	"testing/quick"
)

// runAll fires every event scheduled before t=1<<20 µs.
func runAll(s *Scheduler) {
	if err := s.RunUntil(context.Background(), 1<<20); err != nil {
		panic(err)
	}
}

func TestSchedulerFiresInTimeOrder(t *testing.T) {
	s := NewScheduler()
	var got []Time
	for _, at := range []Time{50, 10, 30, 20, 40} {
		at := at
		s.At(at, "e", func() { got = append(got, at) })
	}
	runAll(s)
	want := []Time{10, 20, 30, 40, 50}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSchedulerFIFOTieBreak(t *testing.T) {
	s := NewScheduler()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(100, "tie", func() { got = append(got, i) })
	}
	runAll(s)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events fired out of scheduling order: %v", got)
		}
	}
}

func TestSchedulerNowAdvances(t *testing.T) {
	s := NewScheduler()
	s.At(25, "a", func() {
		if s.Now() != 25 {
			t.Errorf("Now() = %v inside event at 25", s.Now())
		}
	})
	runAll(s)
	if s.Now() != 1<<20 {
		t.Errorf("final Now() = %v, want the deadline", s.Now())
	}
}

func TestSchedulerPastSchedulingPanics(t *testing.T) {
	s := NewScheduler()
	s.At(100, "advance", func() {})
	runAll(s)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.At(50, "past", func() {})
}

func TestSchedulerRunUntil(t *testing.T) {
	s := NewScheduler()
	var fired int
	for _, at := range []Time{10, 20, 30, 40} {
		s.At(at, "e", func() { fired++ })
	}
	s.RunUntil(context.Background(), 25)
	if fired != 2 {
		t.Errorf("fired %d events by t=25, want 2", fired)
	}
	if s.Now() != 25 {
		t.Errorf("Now() = %v after RunUntil(25)", s.Now())
	}
	if n := s.Stats().Pending; n != 2 {
		t.Errorf("Pending = %d, want 2", n)
	}
	s.RunUntil(context.Background(), 100)
	if fired != 4 {
		t.Errorf("fired %d events total, want 4", fired)
	}
	if s.Now() != 100 {
		t.Errorf("Now() = %v after RunUntil(100)", s.Now())
	}
}

// A cancelled context stops the run after the in-flight event, within
// ctxPollEvents events, and leaves the clock where the run stopped.
func TestSchedulerRunUntilCancel(t *testing.T) {
	s := NewScheduler()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fired int
	for i := 1; i <= 3*ctxPollEvents; i++ {
		s.At(Time(i), "e", func() {
			if fired++; fired == 10 {
				cancel()
			}
		})
	}
	if err := s.RunUntil(ctx, Time(4*ctxPollEvents)); err != context.Canceled {
		t.Fatalf("RunUntil = %v, want context.Canceled", err)
	}
	if fired != ctxPollEvents || s.Now() != Time(ctxPollEvents) {
		t.Errorf("stopped after %d events at %v, want %d at the last fired", fired, s.Now(), ctxPollEvents)
	}
	if err := s.RunUntil(ctx, Time(4*ctxPollEvents)); err != context.Canceled || fired != ctxPollEvents {
		t.Errorf("RunUntil on a cancelled context = %v after %d events, want context.Canceled and none fired", err, fired)
	}
}

func TestSchedulerEventsScheduledDuringRun(t *testing.T) {
	s := NewScheduler()
	var got []Time
	s.At(10, "outer", func() {
		got = append(got, s.Now())
		s.At(s.Now()+5, "inner", func() { got = append(got, s.Now()) })
	})
	runAll(s)
	if len(got) != 2 || got[0] != 10 || got[1] != 15 {
		t.Errorf("got %v, want [10 15]", got)
	}
}

func TestSchedulerFiredCounter(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 7; i++ {
		s.At(Time(i), "e", func() {})
	}
	runAll(s)
	if s.Fired() != 7 {
		t.Errorf("Fired() = %d, want 7", s.Fired())
	}
}

// Property: for any set of event times, the scheduler fires them in
// non-decreasing time order and ends at the maximum time.
func TestSchedulerOrderProperty(t *testing.T) {
	f := func(times []uint16) bool {
		s := NewScheduler()
		var fired []Time
		for _, u := range times {
			at := Time(u)
			s.At(at, "p", func() { fired = append(fired, at) })
		}
		runAll(s)
		if len(fired) != len(times) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTimeArithmetic(t *testing.T) {
	base := Time(0).Add(3 * Millisecond)
	if base != 3000 {
		t.Errorf("3ms = %d µs, want 3000", base)
	}
	if base.Sub(Time(1000)) != 2*Millisecond {
		t.Errorf("Sub wrong: %v", base.Sub(Time(1000)))
	}
	if Time(2*Hour).Hours() != 2 {
		t.Errorf("Hours() = %v, want 2", Time(2*Hour).Hours())
	}
	if got := DurationFromHours(1.5); got != Duration(3*Hour)/2 {
		t.Errorf("DurationFromHours(1.5) = %v", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500µs"},
		{Time(2500 * Microsecond), "2.500ms"},
		{Time(3 * Second), "3.000s"},
		{Time(3 * Hour), "3.00h"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("String(%d) = %q, want %q", int64(c.t), got, c.want)
		}
	}
}
