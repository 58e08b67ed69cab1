package seglog

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// runOps drives a Log and a plain-slice model through the same op stream,
// read from data one byte at a time (reads past the end return zero, so
// every input is a valid stream), and fails at the first divergence. Every
// step compares the whole log, so streams are cut at 1 KiB to keep an
// input's cost linear in its length.
func runOps(t *testing.T, data []byte) {
	data = data[:min(len(data), 1<<10)]
	var l Log[int]
	var model []int
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1])
	}
	val := 0
	for step := 0; pos < len(data); step++ {
		op := next() % 7
		var desc string
		switch op {
		case 0, 1, 2: // append a run: logs mostly grow at the tail
			n := next()%40 + 1
			for i := 0; i < n; i++ {
				val++
				l.Append(val)
				model = append(model, val)
			}
			desc = fmt.Sprintf("Append x%d", n)
		case 3: // insert within a few places of the tail
			val++
			i := max(len(model)-next()%8, 0)
			l.Insert(i, val)
			model = slices.Insert(model, i, val)
			desc = fmt.Sprintf("Insert(%d)", i)
		case 4, 5:
			k := next() * next() / 64
			l.DropFront(k)
			model = model[min(k, len(model)):]
			desc = fmt.Sprintf("DropFront(%d)", k)
		case 6:
			if next()%4 == 0 {
				l.Reset()
				model = model[:0]
				desc = "Reset"
			} else {
				desc = "scan"
			}
		}
		if err := sameAs(&l, model); err != nil {
			t.Fatalf("step %d (%s): %v", step, desc, err)
		}
	}
}

// sameAs compares the log, read segment by segment, with the model, and
// checks the segment invariants.
func sameAs(l *Log[int], model []int) error {
	if l.Len() != len(model) {
		return fmt.Errorf("Len %d, model %d", l.Len(), len(model))
	}
	var scanned []int
	for k := 0; k < l.NumSegs(); k++ {
		seg := l.Seg(k)
		if len(seg) == 0 {
			return fmt.Errorf("segment %d of %d is empty", k, l.NumSegs())
		}
		scanned = append(scanned, seg...)
	}
	if !slices.Equal(scanned, model) {
		return fmt.Errorf("segments hold %v, model %v", scanned, model)
	}
	if last, ok := l.Last(); ok != (len(model) > 0) || ok && last != model[len(model)-1] {
		return fmt.Errorf("Last gives %d, %v", last, ok)
	}
	return nil
}

// TestLogMatchesSliceModel runs random op streams against the model.
func TestLogMatchesSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		data := make([]byte, 400)
		rng.Read(data)
		runOps(t, data)
	}
}

// TestSlidingWindowStopsAllocating pins the reason the package exists: a
// window kept at a fixed length by appending at the tail and dropping at
// the front allocates nothing once it has reached that length.
func TestSlidingWindowStopsAllocating(t *testing.T) {
	var l Log[[5]int64]
	const window = 1000
	for i := 0; i < 3*window; i++ {
		l.Append([5]int64{int64(i)})
		l.DropFront(l.Len() - window)
	}
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < window; i++ {
			l.Append([5]int64{int64(i)})
			l.DropFront(l.Len() - window)
		}
	})
	if allocs != 0 {
		t.Errorf("steady sliding window allocates %.1f objects per %d appends, want 0", allocs, window)
	}
}

// TestInsertOutOfRangePanics pins Insert's contract on bad positions.
func TestInsertOutOfRangePanics(t *testing.T) {
	for _, i := range []int{-1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Insert(%d) on a 1-element log did not panic", i)
				}
			}()
			var l Log[int]
			l.Append(1)
			l.Insert(i, 2)
		}()
	}
}

// FuzzLog drives the same op streams from the fuzzer.
func FuzzLog(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 39, 0, 39, 0, 39, 3, 5, 4, 200, 1, 6, 20, 3, 0, 0, 39, 7, 0, 0, 10})
	f.Add([]byte{6, 100, 0, 20, 3, 7, 4, 10, 10, 0, 39, 0, 39, 3, 1, 4, 255, 255})
	f.Fuzz(runOps)
}
