package baseline

import (
	"fmt"
	"slices"
	"sort"

	"decos/internal/ckpt"
	"decos/internal/sim"
	"decos/internal/tt"
	"decos/internal/vnet"
)

// Checkpointing of the OBD baseline. The watch list is structural; what
// crosses the wire is the failure-span tracking, the per-port receive
// cursors and the stored trouble codes.

// Snapshot serializes the diagnoser's mutable state in key order.
func (o *OBD) Snapshot(e *ckpt.Encoder) {
	snapshotSpans(e, o.comm, func(i int) int { return i })
	snapshotSpans(e, o.value, func(i int) int { return int(o.valueChans[i]) })
	e.Int(len(o.watched))
	for i := range o.watched {
		e.Int(o.watched[i].prev)
	}
	comps := make([]int, 0, len(o.dtcs))
	for n := range o.dtcs {
		comps = append(comps, int(n))
	}
	sort.Ints(comps)
	e.Int(len(comps))
	for _, n := range comps {
		m := o.dtcs[tt.NodeID(n)]
		codes := make([]string, 0, len(m))
		for c := range m {
			codes = append(codes, c)
		}
		sort.Strings(codes)
		e.Int(n)
		e.Int(len(codes))
		for _, c := range codes {
			d := m[c]
			e.String(c)
			e.Varint(int64(d.First))
			e.Int(d.Count)
		}
	}
}

// Restore replaces the diagnoser's state.
func (o *OBD) Restore(d *ckpt.Decoder) error {
	err := restoreSpans(d, o.comm, "node", func(n int) (int, bool) { return n, n >= 0 && n < len(o.comm) })
	if err == nil {
		err = restoreSpans(d, o.value, "channel", func(ch int) (int, bool) {
			return slices.BinarySearch(o.valueChans, vnet.ChannelID(ch))
		})
	}
	if err != nil {
		return err
	}
	nw := d.Len(1 << 20)
	if d.Err() == nil && nw != len(o.watched) {
		return fmt.Errorf("baseline: checkpoint has %d watched ports, OBD has %d", nw, len(o.watched))
	}
	for i := 0; i < nw && d.Err() == nil; i++ {
		o.watched[i].prev = d.Int()
	}
	clear(o.dtcs)
	nd := d.Len(1 << 16)
	for i := 0; i < nd && d.Err() == nil; i++ {
		comp := tt.NodeID(d.Int())
		ncodes := d.Len(1 << 8)
		m := make(map[string]*DTC, ncodes)
		for k := 0; k < ncodes && d.Err() == nil; k++ {
			code := d.String()
			m[code] = &DTC{
				Component: comp,
				Code:      code,
				First:     sim.Time(d.Varint()),
				Count:     d.Int(),
			}
		}
		if d.Err() == nil {
			o.dtcs[comp] = m
		}
	}
	return d.Err()
}

// snapshotSpans writes the tracked spans, keyed by key(i), in slice order
// (ascending key).
func snapshotSpans(e *ckpt.Encoder, spans []span, key func(int) int) {
	n := 0
	for i := range spans {
		if spans[i].seen {
			n++
		}
	}
	e.Int(n)
	for i, s := range spans {
		if s.seen {
			e.Int(key(i))
			e.Bool(s.failing)
			e.Varint(int64(s.since))
		}
	}
}

// restoreSpans replaces spans with the checkpointed ones. index maps a
// key to its span; a key the diagnoser does not track is an error.
func restoreSpans(d *ckpt.Decoder, spans []span, what string, index func(int) (int, bool)) error {
	clear(spans)
	n := d.Len(1 << 16)
	for i := 0; i < n && d.Err() == nil; i++ {
		key, failing, since := d.Int(), d.Bool(), sim.Time(d.Varint())
		if d.Err() != nil {
			break
		}
		j, ok := index(key)
		if !ok {
			return fmt.Errorf("baseline: checkpoint tracks %s %d, which the diagnoser does not watch", what, key)
		}
		spans[j] = span{seen: true, failing: failing, since: since}
	}
	return d.Err()
}
