package trace

import (
	"decos/internal/core"
	"decos/internal/faults"
	"decos/internal/maintenance"
	"decos/internal/sim"
)

// Advisor names one diagnostic arm whose end-of-run advice is embedded in
// the trace ("decos", "obd", ...). A slice fixes the emission order so
// traces are byte-identical across runs.
type Advisor struct {
	Name string
	Adv  maintenance.Advisor
}

// WriteAudit appends the end-of-run audit block that makes a vehicle trace
// self-sufficient for off-line warranty analysis (paper Section V-B): a
// vehicle header, one ground-truth record per injected fault, and each
// advisor's standing advice for every FRU of interest. frus lists the FRUs
// to interrogate beyond the ground-truth subjects (typically all hardware
// FRUs, so fault-free vehicles expose false-alarm removals).
func (r *Recorder) WriteAudit(now sim.Time, faultFree bool, acts []*faults.Activation, advisors []Advisor, frus []core.FRU) {
	detail := "faulty"
	if faultFree {
		detail = "fault-free"
	}
	r.write(Event{T: now.Micros(), Kind: "vehicle", Detail: detail})

	subjects := append([]core.FRU{}, frus...)
	seen := make(map[core.FRU]bool, len(frus))
	for _, f := range frus {
		seen[f] = true
	}
	for _, a := range acts {
		s := maintenance.AuditSubject(a)
		r.write(Event{
			T: now.Micros(), Kind: "truth",
			Subject: s.String(), Class: a.Class.String(), Detail: a.Detail,
		})
		if !seen[s] {
			seen[s] = true
			subjects = append(subjects, s)
		}
	}
	for _, adv := range advisors {
		for _, f := range subjects {
			action, class, ok := adv.Adv.Advise(f)
			if !ok {
				continue
			}
			r.write(Event{
				T: now.Micros(), Kind: "advice", Source: adv.Name,
				Subject: f.String(), Class: class.String(), Action: action.String(),
			})
		}
	}
}
