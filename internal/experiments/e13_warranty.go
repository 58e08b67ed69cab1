package experiments

import (
	"bytes"
	"fmt"

	"decos/internal/scenario"
	"decos/internal/warranty"
)

// E13FleetWarranty closes the paper's Section V-B loop at fleet scale: a
// mixed-fault campaign is run with per-vehicle trace recording, every
// vehicle's binary (DCS-B) trace is ingested into the concurrent warranty
// collector (straight from the campaign workers, as fielded uplinks
// would arrive), and the trace-fed fleet summary is compared against the
// in-process audit. The claim under test is that the offline warranty
// interface loses nothing: the E8 headline numbers — NFF ratio, removal
// cost, missed faults, false alarms — and the Section V-C 20-80 software
// concentration are reproduced from the ingested traces alone, exactly.
func E13FleetWarranty(seed uint64) *Result {
	c := scenario.Campaign{
		Vehicles:       150,
		Rounds:         3000,
		Seed:           seed,
		FaultFreeShare: 0.2,
	}
	col := warranty.NewCollector(0)
	res := c.RunTraced(func(v int, blob []byte) {
		// The sink runs on the campaign worker pool: ingestion is
		// concurrent across vehicles, like uplinks in the field.
		col.IngestStream(bytes.NewReader(blob), 0)
	})
	s := col.Summary(0)

	decos, obd := s.Arms["decos"], s.Arms["obd"]
	agree := decos != nil && obd != nil &&
		decos.NFFRatio == res.DECOS.NFFRatio() &&
		obd.NFFRatio == res.OBD.NFFRatio() &&
		decos.Cost == res.DECOS.Cost &&
		obd.Cost == res.OBD.Cost &&
		decos.Missed == res.DECOS.Missed &&
		decos.FalseAlarms == res.DECOSFalseAlarms &&
		obd.FalseAlarms == res.OBDFalseAlarms &&
		s.Fleet.Pareto20 == res.Fleet.Pareto(0.2) &&
		s.Fleet.Incidents == res.Fleet.Incidents()

	t := newTable("metric", "trace-fed (warranty)", "in-process (E8)")
	t.row("vehicles", s.Vehicles, c.Vehicles)
	t.row("ground-truth faults", s.Truths, res.DECOS.Total)
	if decos != nil {
		t.row("DECOS NFF ratio", pct(decos.NFFRatio), pct(res.DECOS.NFFRatio()))
		t.row("DECOS removal cost", fmt.Sprintf("$%.0f", decos.Cost), fmt.Sprintf("$%.0f", res.DECOS.Cost))
		t.row("DECOS missed faults", decos.Missed, res.DECOS.Missed)
		t.row("DECOS false alarms", decos.FalseAlarms, res.DECOSFalseAlarms)
	}
	if obd != nil {
		t.row("OBD NFF ratio", pct(obd.NFFRatio), pct(res.OBD.NFFRatio()))
		t.row("OBD removal cost", fmt.Sprintf("$%.0f", obd.Cost), fmt.Sprintf("$%.0f", res.OBD.Cost))
	}
	t.row("software 20-80 share", pct(s.Fleet.Pareto20), pct(res.Fleet.Pareto(0.2)))
	t.row("fleet incidents", s.Fleet.Incidents, res.Fleet.Incidents())
	t.row("events ingested", s.Events, "—")
	t.row("corrupt lines", s.CorruptLines, "—")
	t.row("exact agreement", agree, "")

	m := map[string]float64{
		"events":       float64(s.Events),
		"agree":        b2f(agree),
		"pareto_top20": s.Fleet.Pareto20,
	}
	if decos != nil && obd != nil {
		m["decos_nff_ratio"] = decos.NFFRatio
		m["obd_nff_ratio"] = obd.NFFRatio
		m["decos_cost"] = decos.Cost
		m["obd_cost"] = obd.Cost
	}
	return &Result{
		ID:      "E13",
		Figure:  "Section V-B — fleet-scale warranty analysis from ingested traces",
		Table:   t.String(),
		Metrics: m,
	}
}
