package scenario

import (
	"decos/internal/diagnosis"
	"decos/internal/engine"
	"decos/internal/pack"
)

// Grid builds an n-component cluster (n ≥ 3) for scalability studies: a
// chain of sensor→observer DASs, one DAS per adjacent component pair, with
// the diagnostic DAS's analysis stage on the last component. Channel i+1
// carries the i-th sensor's signal. The plan's faults ride the engine's
// fault manifest, as in Fig10; extra composes engine options onto the
// canonical configuration — checkpoint sinks, restore sources, trace
// writers.
func Grid(n int, seed uint64, opts diagnosis.Options, plan []InjectPlan, extra ...engine.Option) *engine.Engine {
	if n < 3 {
		panic("scenario: grid needs at least 3 components")
	}
	t := pack.GridTopology(n)
	return engine.MustNew(append(append(t.Options(seed, opts), PlanFaults(plan)), extra...)...)
}
