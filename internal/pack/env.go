package pack

// expand maps an environment profile onto a deterministic series of
// fault specs. The expansion is pure arithmetic over the profile's
// window, period and intensity — no randomness — so a pack replays
// bit-identically under its seed and a checkpoint restore reconstructs
// every activation by re-running the manifest. Targets rotate
// round-robin over the profile's component list (default: every
// component except the diagnostic node, which must stay operational to
// observe the stress).
func (e *EnvProfile) expand(t *Topology) []FaultSpec {
	targets := e.Components
	if len(targets) == 0 {
		for id := 0; id < t.Nodes; id++ {
			if id != t.DiagNode {
				targets = append(targets, id)
			}
		}
	}
	if len(targets) == 0 {
		return nil
	}
	var out []FaultSpec
	k := 0
	for at := e.FromMS; at < e.ToMS && k < MaxEnvEvents; at += e.PeriodMS {
		comp := targets[k%len(targets)]
		switch e.Profile {
		case "vibration":
			// Vibration shakes marginal solder joints and sockets: transient
			// internal episodes at a rate growing with intensity, one
			// per-component activation window per period.
			out = append(out, FaultSpec{
				Kind:        "intermittent",
				AtMS:        at,
				EndMS:       min(at+e.PeriodMS, e.ToMS),
				Component:   comp,
				RatePerHour: 3600 * (2 + 6*e.Intensity),
			})
		case "thermal-cycling":
			// Temperature excursions push the oscillator out of spec for a
			// fraction of each cycle; the ensemble readmits the clock when
			// the temperature returns.
			out = append(out, FaultSpec{
				Kind:       "transient-quartz",
				AtMS:       at,
				DurationMS: 0.4 * e.PeriodMS,
				Component:  comp,
				DriftPPM:   30_000 + 120_000*e.Intensity,
			})
		case "emi-storm":
			// Radiated interference bursts with an epicenter at the target
			// component; radius and corrupted bits grow with intensity.
			out = append(out, FaultSpec{
				Kind:      "emi-burst",
				AtMS:      at,
				Component: comp,
				Radius:    1.5 + 2.5*e.Intensity,
				Bits:      2 + int(6*e.Intensity),
			})
		case "connector-chatter":
			// Intermittent contact on the harness: alternating tx/rx drop
			// windows covering a share of each period.
			kind := "connector-tx"
			if k%2 == 1 {
				kind = "connector-rx"
			}
			out = append(out, FaultSpec{
				Kind:      kind,
				AtMS:      at,
				EndMS:     min(at+0.4*e.PeriodMS, e.ToMS),
				Component: comp,
				Rate:      0.15 + 0.4*e.Intensity,
			})
		case "power-sags":
			// Supply sags: short outages whose depth (duration) follows the
			// intensity.
			out = append(out, FaultSpec{
				Kind:       "power-dip",
				AtMS:       at,
				DurationMS: 50 * (0.5 + e.Intensity),
				Component:  comp,
			})
		}
		k++
	}
	return out
}
