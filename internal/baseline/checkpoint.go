package baseline

import (
	"fmt"
	"slices"

	"decos/internal/ckpt"
	"decos/internal/tt"
	"decos/internal/vnet"
)

// Checkpointing of the OBD baseline. The watch list is structural; what
// crosses the wire is the failure-span tracking, the per-port receive
// cursors and the stored trouble codes.

// Code implements ckpt.Snapshotter: the diagnoser's mutable state in key
// order.
func (o *OBD) Code(c *ckpt.Coder) error {
	if c.Decoding() {
		clear(o.comm)
		clear(o.value)
	}
	ckpt.Sparse(c, len(o.comm), func(i int) bool { return o.comm[i].seen }, func(c *ckpt.Coder, i int) {
		ckpt.Index(c, &i, len(o.comm), "node")
		codeSpan(c, o.comm, i)
	})
	ckpt.Sparse(c, len(o.value), func(i int) bool { return o.value[i].seen }, func(c *ckpt.Coder, i int) {
		var ch vnet.ChannelID
		if !c.Decoding() {
			ch = o.valueChans[i]
		}
		ckpt.Index(c, &ch, 1<<16, "channel")
		if c.Decoding() && c.Err() == nil {
			var ok bool
			if i, ok = slices.BinarySearch(o.valueChans, ch); !ok {
				c.Fail(fmt.Errorf("baseline: checkpoint tracks channel %d, which the diagnoser does not watch", ch))
			}
		}
		codeSpan(c, o.value, i)
	})
	c.Count(len(o.watched), "watched ports")
	for i := range o.watched {
		c.Int(&o.watched[i].prev)
	}
	ckpt.SortedMap(c, &o.dtcs, 1<<16,
		func(c *ckpt.Coder, n *tt.NodeID) { ckpt.Index(c, n, len(o.comm), "node") },
		func(c *ckpt.Coder, n tt.NodeID, m *map[string]*DTC) {
			ckpt.SortedMap(c, m, 1<<8, (*ckpt.Coder).String, func(c *ckpt.Coder, code string, d **DTC) {
				if c.Decoding() {
					*d = &DTC{Component: n, Code: code}
				}
				ckpt.Varint(c, &(*d).First)
				c.Int(&(*d).Count)
			})
		})
	return c.Err()
}

// codeSpan codes the seen span spans[i], unless decoding has failed.
func codeSpan(c *ckpt.Coder, spans []span, i int) {
	if c.Err() == nil {
		s := &spans[i]
		s.seen = true
		c.Bool(&s.failing)
		ckpt.Varint(c, &s.since)
	}
}
