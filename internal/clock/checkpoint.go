package clock

import "decos/internal/ckpt"

// Code implements ckpt.Snapshotter: the cluster's mutable synchronization
// state, per oscillator the drift (mutable via the defective-quartz
// fault), jitter, and the folded correction state, plus the in-sync
// flags. The resync scratch buffers are derived state and excluded. The
// oscillators' jitter RNG is the shared "clocks" stream, restored
// separately with the stream states.
func (c *Cluster) Code(k *ckpt.Coder) error {
	k.Count(len(c.Oscillators), "oscillators")
	for i, o := range c.Oscillators {
		k.Float64(&o.DriftPPM)
		k.Float64(&o.JitterUS)
		k.Float64(&o.offsetUS)
		ckpt.Varint(k, &o.baseAt)
		k.Float64(&o.baseLocal)
		k.Bool(&c.inSync[i])
	}
	return k.Err()
}
