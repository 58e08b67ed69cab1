// Package seglog is an append-mostly log stored in fixed segments.
//
// A Log never reallocates an element once it is stored: appends fill the
// tail segment and start a new one when it is full, and DropFront retires
// whole segments onto a per-log free list that later appends draw from.
// A sliding window kept in a Log (append at the tail, drop at the front)
// therefore stops allocating once its footprint has been reached, where a
// re-sliced Go slice copies the whole live window on every growth step.
//
// New segments grow geometrically from 8 to 256 elements, so a short log
// costs no more than a doubling slice. Readers walk the segments in order
// with NumSegs and Seg.
package seglog

const (
	minSeg = 8
	maxSeg = 256
)

// Log is a sequence of T in fixed segments. The zero value is an empty
// log ready to use. A Log must not be copied after first use.
type Log[T any] struct {
	// segs holds the live segments in order. A segment's length is its
	// fill, and only the last one may be empty (Reserve can leave room
	// unused in the one before it). The first head elements of segs[0]
	// are dead; the rest of segs[0] is not.
	segs [][]T
	head int
	n    int
	// free holds retired segments (length 0), reused LIFO.
	free [][]T
}

// Len returns the number of elements in the log.
func (l *Log[T]) Len() int { return l.n }

// NumSegs returns the number of segments a scan visits.
func (l *Log[T]) NumSegs() int { return len(l.segs) }

// Seg returns segment k (0 <= k < NumSegs) of the log in order. The
// concatenation of all segments is the log. The slice aliases the log's
// storage: it is valid until the next call that modifies the log.
func (l *Log[T]) Seg(k int) []T {
	if k == 0 {
		return l.segs[0][l.head:]
	}
	return l.segs[k]
}

// Last returns the tail element; ok is false when the log is empty.
func (l *Log[T]) Last() (v T, ok bool) {
	for k := len(l.segs) - 1; k >= 0; k-- {
		if s := l.Seg(k); len(s) > 0 {
			return s[len(s)-1], true
		}
	}
	return v, false
}

// Append adds v at the tail.
func (l *Log[T]) Append(v T) {
	t := len(l.segs) - 1
	if t < 0 || len(l.segs[t]) == cap(l.segs[t]) {
		size := minSeg
		if t >= 0 {
			size = min(max(2*cap(l.segs[t]), minSeg), maxSeg)
		}
		l.segs = append(l.segs, l.newSeg(size))
		t++
	}
	l.segs[t] = append(l.segs[t], v)
	l.n++
}

// newSeg returns an empty segment: a retired one if any, else a fresh one
// of the given capacity.
func (l *Log[T]) newSeg(size int) []T {
	if k := len(l.free) - 1; k >= 0 {
		s := l.free[k]
		l.free[k] = nil
		l.free = l.free[:k]
		return s
	}
	return make([]T, 0, size)
}

// Insert places v at position i (0 <= i <= Len), shifting the elements
// after it one place toward the tail. It costs O(Len-i): it is meant for
// insertions near the tail, such as slightly out-of-order arrivals.
func (l *Log[T]) Insert(i int, v T) {
	if i < 0 || i > l.n {
		panic("seglog: insert position out of range")
	}
	l.Append(v)
	// Walk back from the new tail element, moving each predecessor up by
	// one place, until the hole reaches position i.
	k := len(l.segs) - 1
	j := len(l.segs[k]) - 1
	for d := l.n - 1 - i; d > 0; d-- {
		pk, pj := k, j-1
		if pj < 0 {
			pk--
			pj = len(l.segs[pk]) - 1
		}
		l.segs[k][j] = l.segs[pk][pj]
		k, j = pk, pj
	}
	l.segs[k][j] = v
}

// DropFront removes the first k elements (all of them when k >= Len).
// Segments left with no live element are retired for reuse.
func (l *Log[T]) DropFront(k int) {
	if k <= 0 {
		return
	}
	if k >= l.n {
		l.Reset()
		return
	}
	l.n -= k
	for {
		live := len(l.segs[0]) - l.head
		if k < live {
			l.head += k
			return
		}
		k -= live
		l.retire(l.segs[0])
		m := copy(l.segs, l.segs[1:])
		l.segs[m] = nil
		l.segs = l.segs[:m]
		l.head = 0
	}
}

// Reset empties the log, retiring every segment for reuse.
func (l *Log[T]) Reset() {
	for i, s := range l.segs {
		l.retire(s)
		l.segs[i] = nil
	}
	l.segs = l.segs[:0]
	l.head, l.n = 0, 0
}

func (l *Log[T]) retire(s []T) {
	clear(s) // release anything the dead elements reference
	l.free = append(l.free, s[:0])
}

// Reserve makes room for n more elements at the tail, so the next n
// appends allocate nothing. When the tail segment lacks that room, one
// segment of exactly n elements is added: a checkpoint restore sizes a
// log once, with no headroom, because later appends never copy it.
func (l *Log[T]) Reserve(n int) {
	t := len(l.segs) - 1
	if n <= 0 || t >= 0 && cap(l.segs[t])-len(l.segs[t]) >= n {
		return
	}
	if t >= 0 && len(l.segs[t]) == 0 {
		// An empty tail would be left empty in the middle of the log.
		l.retire(l.segs[t])
		l.segs = l.segs[:t]
	}
	l.segs = append(l.segs, make([]T, 0, n))
}

// AppendTo appends the log's elements, in order, to dst and returns the
// extended slice.
func (l *Log[T]) AppendTo(dst []T) []T {
	for k := range l.segs {
		dst = append(dst, l.Seg(k)...)
	}
	return dst
}
