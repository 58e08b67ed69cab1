package bayes

import "decos/internal/ckpt"

// Checkpoint layout of the Bayesian classifier ("cls" section of the
// engine stream, DESIGN §14): the posterior is plain numeric state —
// FRU count, hypothesis count (layout guard), epoch and abstention
// counters, then the centred log posterior rows as exact IEEE 754
// bits, then the per-FRU accused flags (standing non-external verdicts
// awaiting a possible recovery downgrade). Tuning is package constants,
// not state: decoding runs on a freshly constructed classifier.

// Code implements ckpt.Snapshotter. The restored floats are the exact
// bits encoding wrote, so a restored run's posterior trajectory — and
// therefore its verdicts and its next checkpoint — is bit-identical to
// the uninterrupted run.
func (c *Classifier) Code(k *ckpt.Coder) error {
	k.Len(&c.nFRU, 1<<16)
	k.Count(int(numHyp), "hypotheses")
	ckpt.Varint(k, &c.epochs)
	ckpt.Uvarint(k, &c.abstained)
	if k.Decoding() {
		if err := k.Err(); err != nil {
			return err
		}
		c.size()
	}
	for i := range c.logp {
		k.Float64(&c.logp[i])
	}
	for i := range c.accused {
		k.Bool(&c.accused[i])
	}
	return k.Err()
}
