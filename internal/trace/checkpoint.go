package trace

import "decos/internal/ckpt"

// Code implements ckpt.Snapshotter: the recorder's cursors, so a restored
// run resumes the event stream exactly where the checkpointed one stood:
// no event is re-emitted, none is skipped. The sink itself is external
// (the caller re-opens the output and positions it); write errors do not
// cross the wire.
func (r *Recorder) Code(c *ckpt.Coder) error {
	c.Int(&r.Events)
	c.Int(&r.ledgerSeen)
	ckpt.Varint(c, &r.lastTrustEpoch)
	return c.Err()
}
