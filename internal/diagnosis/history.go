package diagnosis

import "decos/internal/seglog"

// History is the distributed state the diagnostic DAS operates on: the
// recent symptom stream, ordered by action-lattice granule, indexed by
// subject FRU. ONAs are predicates over this store (paper Section V-A).
type History struct {
	// RetainGranules bounds how far back symptoms are kept.
	RetainGranules int64

	// bySubject is indexed by subject FRU. Each list is a segmented log,
	// so a subject's sliding window stops allocating once it has reached
	// its retention footprint; the queries below walk its segments.
	bySubject []seglog.Log[Symptom]
	// present marks the subjects a symptom has been added (or restored)
	// for, even if every symptom has since been pruned: exactly those
	// subjects are carried by a checkpoint.
	present []bool
	latest  int64
	total   uint64 // symptoms ever added; checkpointed
}

// NewHistory returns a store for the given number of subject FRUs (the
// registry's Len), retaining the given number of granules.
func NewHistory(retain int64, subjects int) *History {
	if retain <= 0 {
		panic("diagnosis: history retention must be positive")
	}
	return &History{
		RetainGranules: retain,
		bySubject:      make([]seglog.Log[Symptom], subjects),
		present:        make([]bool, subjects),
	}
}

// Add inserts a symptom and prunes expired entries for its subject.
// Symptoms may arrive out of granule order (the diagnostic network queues
// under load), so insertion keeps each subject's list granule-sorted —
// front-pruning stays exact. A symptom about a subject outside the
// registry names no FRU and is not stored.
func (h *History) Add(s Symptom) {
	if int(s.Subject) >= len(h.bySubject) {
		return
	}
	if s.Granule > h.latest {
		h.latest = s.Granule
	}
	h.total++
	h.present[s.Subject] = true
	list := &h.bySubject[s.Subject]
	// Insert after the last symptom not newer than s, walking back from
	// the tail: arrivals are at most slightly out of order.
	i := list.Len()
	for k := list.NumSegs() - 1; k >= 0; k-- {
		seg := list.Seg(k)
		j := len(seg)
		for j > 0 && seg[j-1].Granule > s.Granule {
			j--
		}
		i -= len(seg) - j
		if j > 0 {
			break
		}
	}
	list.Insert(i, s)
	cut := h.latest - h.RetainGranules
	expired := 0
	for k := 0; k < list.NumSegs(); k++ {
		seg := list.Seg(k)
		j := 0
		for j < len(seg) && seg[j].Granule < cut {
			j++
		}
		expired += j
		if j < len(seg) {
			break
		}
	}
	list.DropFront(expired)
}

// reset empties the history, keeping every subject log's segments.
func (h *History) reset() {
	for i := range h.bySubject {
		h.bySubject[i].Reset()
	}
	clear(h.present)
	h.latest, h.total = 0, 0
}

// Latest returns the newest granule seen.
func (h *History) Latest() int64 { return h.latest }

// Filter is a symptom predicate used in window queries; nil matches all.
type Filter func(Symptom) bool

// KindIn returns a Filter matching any of the given kinds.
func KindIn(kinds ...Kind) Filter {
	return func(s Symptom) bool {
		for _, k := range kinds {
			if s.Kind == k {
				return true
			}
		}
		return false
	}
}

// noSymptoms is the empty list of a subject outside the registry.
var noSymptoms seglog.Log[Symptom]

// list returns the subject's retained symptoms, granule-sorted. Shared
// internal state: same-package query helpers scan its segments in place.
func (h *History) list(subject FRUIndex) *seglog.Log[Symptom] {
	if int(subject) >= len(h.bySubject) {
		return &noSymptoms
	}
	return &h.bySubject[subject]
}

// Count sums the Count fields of matching symptoms in the window. The
// subject list is granule-sorted, so the scan stops at the window's end and
// allocates nothing — ONAs call this many times per epoch.
func (h *History) Count(subject FRUIndex, from, to int64, f Filter) int {
	n := 0
	l := h.list(subject)
scan:
	for k := 0; k < l.NumSegs(); k++ {
		for _, s := range l.Seg(k) {
			if s.Granule > to {
				break scan
			}
			if s.Granule >= from && (f == nil || f(s)) {
				n += int(s.Count)
			}
		}
	}
	return n
}

// Observers returns the distinct observers reporting matching symptoms for
// the subject in the window.
func (h *History) Observers(subject FRUIndex, from, to int64, f Filter) []FRUIndex {
	var out []FRUIndex
	l := h.list(subject)
scan:
	for k := 0; k < l.NumSegs(); k++ {
		for _, s := range l.Seg(k) {
			if s.Granule > to {
				break scan
			}
			if s.Granule < from || (f != nil && !f(s)) {
				continue
			}
			dup := false
			for _, o := range out {
				if o == s.Observer {
					dup = true
					break
				}
			}
			if !dup {
				out = append(out, s.Observer)
			}
		}
	}
	return out
}

// ActiveGranules returns the distinct granules with matching symptoms for
// the subject in the window, ascending.
func (h *History) ActiveGranules(subject FRUIndex, from, to int64, f Filter) []int64 {
	return h.appendActiveGranules(nil, subject, from, to, f)
}

// appendActiveGranules appends ActiveGranules' list to dst and returns the
// extended slice. The subject list is granule-sorted, so distinctness is a
// comparison against the previous entry.
func (h *History) appendActiveGranules(dst []int64, subject FRUIndex, from, to int64, f Filter) []int64 {
	start := len(dst)
	l := h.list(subject)
scan:
	for k := 0; k < l.NumSegs(); k++ {
		for _, s := range l.Seg(k) {
			if s.Granule > to {
				break scan
			}
			if s.Granule < from || (f != nil && !f(s)) {
				continue
			}
			if len(dst) == start || dst[len(dst)-1] != s.Granule {
				dst = append(dst, s.Granule)
			}
		}
	}
	return dst
}

// ActiveGranuleCount is len(ActiveGranules(...)), counted in place.
func (h *History) ActiveGranuleCount(subject FRUIndex, from, to int64, f Filter) int {
	n, last := 0, int64(0)
	l := h.list(subject)
scan:
	for k := 0; k < l.NumSegs(); k++ {
		for _, s := range l.Seg(k) {
			if s.Granule > to {
				break scan
			}
			if s.Granule < from || (f != nil && !f(s)) {
				continue
			}
			if n == 0 || s.Granule != last {
				n++
				last = s.Granule
			}
		}
	}
	return n
}

// MaxDeviation returns the maximum Deviation of matching symptoms in the
// window.
func (h *History) MaxDeviation(subject FRUIndex, from, to int64, f Filter) float64 {
	max := 0.0
	l := h.list(subject)
scan:
	for k := 0; k < l.NumSegs(); k++ {
		for _, s := range l.Seg(k) {
			if s.Granule > to {
				break scan
			}
			if s.Granule >= from && (f == nil || f(s)) {
				if d := float64(s.Deviation); d > max {
					max = d
				}
			}
		}
	}
	return max
}
