package experiments

import (
	"strings"
	"testing"
)

const seed = 20050404 // IPPS 2005

func TestE1CoreServicesHold(t *testing.T) {
	r := E1CoreServices(seed)
	if r.Metrics["slot_jitter_us"] != 0 {
		t.Error("transport not predictable")
	}
	if r.Metrics["worst_precision_us"] > 25 {
		t.Errorf("precision %v exceeds Π", r.Metrics["worst_precision_us"])
	}
	if r.Metrics["foreign_disturbed"] != 0 || r.Metrics["guardian_blocks"] == 0 {
		t.Error("fault isolation failed")
	}
	if r.Metrics["membership_agree"] != 1 || r.Metrics["detect_latency_rnds"] > 2 {
		t.Error("membership service failed")
	}
}

func TestE2ChainAllClassesTraced(t *testing.T) {
	r := E2Chain(seed)
	if r.Metrics["accuracy"] < 0.85 {
		t.Errorf("chain classification accuracy %.2f\n%s", r.Metrics["accuracy"], r.Table)
	}
}

func TestE3BathtubShape(t *testing.T) {
	r := E3Bathtub(seed)
	if r.Metrics["bathtub_shape_ok"] != 1 {
		t.Errorf("bathtub shape broken:\n%s", r.Table)
	}
	// Useful-life hazard calibrated to the fault hypothesis (~100 FIT,
	// wide Monte-Carlo tolerance).
	if u := r.Metrics["useful_fit"]; u < 40 || u > 300 {
		t.Errorf("useful-life hazard = %v FIT, want ≈100", u)
	}
}

func TestE4PatternsMatchFig8(t *testing.T) {
	r := E4Patterns(seed)
	if r.Metrics["wearout_rise"] < 1.5 {
		t.Errorf("wearout episode rate not rising: ×%v", r.Metrics["wearout_rise"])
	}
	if r.Metrics["wearout_components"] != 1 {
		t.Errorf("wearout spread over %v components", r.Metrics["wearout_components"])
	}
	if r.Metrics["wearout_dev_increasing"] != 1 {
		t.Error("wearout deviation not increasing")
	}
	if r.Metrics["emi_components"] < 2 {
		t.Errorf("EMI hit %v components, want ≥2", r.Metrics["emi_components"])
	}
	if r.Metrics["emi_span_granules"] > 15 {
		t.Errorf("EMI span %v granules, want ~burst duration", r.Metrics["emi_span_granules"])
	}
	if r.Metrics["emi_max_bits"] < 2 {
		t.Error("EMI corruption not multi-bit")
	}
	if r.Metrics["connector_components"] != 1 {
		t.Errorf("connector spread over %v components", r.Metrics["connector_components"])
	}
	d := r.Metrics["connector_duty"]
	if d < 0.05 || d > 0.9 {
		t.Errorf("connector duty %v not intermittent", d)
	}
}

func TestE5TrustTrajectories(t *testing.T) {
	r := E5Trust(seed)
	if r.Metrics["fig9_shape_ok"] != 1 {
		t.Errorf("Fig. 9 trajectories wrong: A=%v B=%v minB=%v\n%s",
			r.Metrics["final_trust_A"], r.Metrics["final_trust_B"], r.Metrics["min_trust_B"], r.Table)
	}
}

func TestE6JudgmentContainment(t *testing.T) {
	r := E6Judgment(seed)
	for _, k := range []string{"job_fault_contained", "job_fault_localized", "tmr_masked", "hw_fault_localized"} {
		if r.Metrics[k] != 1 {
			t.Errorf("%s failed\n%s", k, r.Table)
		}
	}
	if r.Metrics["jobs_wrongly_blamed"] != 0 {
		t.Errorf("%v jobs wrongly blamed", r.Metrics["jobs_wrongly_blamed"])
	}
}

func TestE7ActionAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign in -short mode")
	}
	r := E7Actions(seed)
	if r.Metrics["action_accuracy"] < 0.8 {
		t.Errorf("action accuracy %.2f\n%s", r.Metrics["action_accuracy"], r.Table)
	}
}

func TestE8NFFComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign in -short mode")
	}
	r := E8NFF(seed)
	// The paper's qualitative claims, as shape assertions.
	if r.Metrics["decos_nff_ratio"] >= r.Metrics["obd_nff_ratio"] && r.Metrics["obd_nff_ratio"] > 0 {
		t.Errorf("DECOS NFF %.2f not below OBD %.2f\n%s",
			r.Metrics["decos_nff_ratio"], r.Metrics["obd_nff_ratio"], r.Table)
	}
	if r.Metrics["decos_action_acc"] <= r.Metrics["obd_action_acc"] {
		t.Errorf("DECOS action accuracy not better\n%s", r.Table)
	}
	if r.Metrics["decos_miss_ratio"] >= r.Metrics["obd_miss_ratio"] {
		t.Errorf("DECOS misses more faults than OBD\n%s", r.Table)
	}
	if r.Metrics["decos_false_alarms"] > 0 {
		t.Errorf("DECOS false alarms on healthy vehicles: %v", r.Metrics["decos_false_alarms"])
	}
}

func TestE9GracefulDegradation(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign in -short mode")
	}
	r := E9MultiFault(seed)
	if r.Metrics["class_acc_k1"] < 0.9 {
		t.Errorf("single-fault accuracy %.2f", r.Metrics["class_acc_k1"])
	}
	// Multi-fault accuracy may degrade but must stay useful.
	if r.Metrics["class_acc_k3"] < 0.6 {
		t.Errorf("triple-fault accuracy collapsed: %.2f\n%s", r.Metrics["class_acc_k3"], r.Table)
	}
}

func TestE10ScaleCorrectness(t *testing.T) {
	if testing.Short() {
		t.Skip("scale sweep in -short mode")
	}
	r := E10Scale(seed)
	for _, n := range []string{"correct_n4", "correct_n8", "correct_n16", "correct_n32"} {
		if r.Metrics[n] != 1 {
			t.Errorf("%s failed\n%s", n, r.Table)
		}
	}
}

func TestE11RepairEffectiveness(t *testing.T) {
	if testing.Short() {
		t.Skip("repair loop in -short mode")
	}
	r := E11RepairLoop(seed)
	if r.Metrics["decos_fix_rate"] < 0.9 {
		t.Errorf("DECOS fix rate %.2f\n%s", r.Metrics["decos_fix_rate"], r.Table)
	}
	if r.Metrics["obd_fix_rate"] >= r.Metrics["decos_fix_rate"] {
		t.Errorf("OBD fixes as much as DECOS?\n%s", r.Table)
	}
	if r.Metrics["obd_no_finding"] == 0 {
		t.Error("OBD found everything — the fault-not-found phenomenon vanished")
	}
}

func TestA3EncapsulationJustified(t *testing.T) {
	r := A3Encapsulation(seed)
	if r.Metrics["guardian_on_correct"] != 1 {
		t.Errorf("with guardian the babbler was not isolated and identified\n%s", r.Table)
	}
	if r.Metrics["guardian_off_correct"] != 0 {
		t.Errorf("attribution should collapse without the guardian\n%s", r.Table)
	}
	if r.Metrics["guardian_off_verdicts"] < 2 {
		t.Errorf("babbling without guardian should disturb multiple FRUs\n%s", r.Table)
	}
}

func TestE12Robustness(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep in -short mode")
	}
	r := E12Robustness(seed)
	if r.Metrics["overall"] < 0.9 {
		t.Errorf("overall robustness %.2f\n%s", r.Metrics["overall"], r.Table)
	}
	if r.Metrics["worst_kind"] < 0.6 {
		t.Errorf("worst kind accuracy %.2f\n%s", r.Metrics["worst_kind"], r.Table)
	}
}

func TestE13FleetWarrantyAgrees(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet campaign in -short mode")
	}
	r := E13FleetWarranty(seed)
	if r.Metrics["agree"] != 1 {
		t.Errorf("trace-fed summary diverged from in-process audit:\n%s", r.Table)
	}
	if r.Metrics["decos_nff_ratio"] >= r.Metrics["obd_nff_ratio"] {
		t.Errorf("NFF comparison inverted over the warranty interface:\n%s", r.Table)
	}
	if r.Metrics["events"] == 0 {
		t.Error("no events ingested")
	}
}

func TestA5DiagBandwidth(t *testing.T) {
	r := A5DiagBandwidth(seed)
	if r.Metrics["drops_a32"] <= r.Metrics["drops_a128"] {
		t.Errorf("undersized diagnostic segment did not drop more symptoms\n%s", r.Table)
	}
	if r.Metrics["drops_a128"] != 0 {
		t.Errorf("generous allocation still dropped %v symptoms", r.Metrics["drops_a128"])
	}
	if r.Metrics["received_a32"] >= r.Metrics["received_a128"] {
		t.Errorf("symptom delivery did not improve with bandwidth\n%s", r.Table)
	}
}

func TestA4QueueSweepMonotone(t *testing.T) {
	r := A4QueueSweep(seed)
	if r.Metrics["overflows_cap1"] <= r.Metrics["overflows_cap16"] {
		t.Errorf("overflow count not decreasing with capacity\n%s", r.Table)
	}
	if r.Metrics["flagged_cap1"] != 1 {
		t.Error("undersized queue not flagged as configuration fault")
	}
}

func TestByIDAndAll(t *testing.T) {
	if _, ok := ByID("e1", seed); !ok {
		t.Error("ByID(e1) failed")
	}
	if _, ok := ByID("nope", seed); ok {
		t.Error("ByID(nope) succeeded")
	}
	r := E1CoreServices(seed)
	if !strings.Contains(r.String(), "E1") || !strings.Contains(r.String(), "metrics:") {
		t.Error("Result.String malformed")
	}
}

func TestE14DivergenceLocalizes(t *testing.T) {
	if testing.Short() {
		t.Skip("counterfactual sweep in -short mode")
	}
	r := E14Whatif(seed)
	if r.Metrics["localization"] < 0.9 {
		t.Errorf("divergence localization %.2f among diverged runs\n%s",
			r.Metrics["localization"], r.Table)
	}
	// Removing a fault before it strikes must be observable for every
	// kind, the one-shot SEU included: a repaired fault does nothing.
	if r.Metrics["diverged"] != 1 {
		t.Errorf("only %.0f%% of faulted runs diverged at all\n%s",
			100*r.Metrics["diverged"], r.Table)
	}
	for _, k := range []string{"connector-tx", "connector-rx", "wearout", "intermittent", "permanent", "quartz", "seu", "power-dip"} {
		if r.Metrics["div_"+k] != 1 {
			t.Errorf("%s: removing the fault produced no divergence in some seeds\n%s", k, r.Table)
		}
	}
}

func TestE16BayesGate(t *testing.T) {
	if testing.Short() {
		t.Skip("dual-classifier seed sweep in -short mode")
	}
	r := E16BayesCalibration(seed)
	// The headline gate of the Bayesian stage: it must attribute hardware
	// faults at least as well as the rule engine it can replace.
	if r.Metrics["recall_bayes"] < r.Metrics["recall_decos"] {
		t.Errorf("bayes recall %.3f below decos recall %.3f\n%s",
			r.Metrics["recall_bayes"], r.Metrics["recall_decos"], r.Table)
	}
	if r.Metrics["precision_bayes"] < 0.9 {
		t.Errorf("bayes accusation precision %.3f\n%s",
			r.Metrics["precision_bayes"], r.Table)
	}
	// Posterior-derived confidences should be no worse calibrated than the
	// rule engine's hand-assigned ones.
	if r.Metrics["ece_bayes"] > r.Metrics["ece_decos"]+0.05 {
		t.Errorf("bayes ECE %.3f much worse than decos %.3f\n%s",
			r.Metrics["ece_bayes"], r.Metrics["ece_decos"], r.Table)
	}
	// Both probabilistic baselines must beat the OBD threshold baseline.
	if r.Metrics["recall_bayes"] <= r.Metrics["recall_obd"] {
		t.Errorf("bayes recall %.3f not above obd %.3f\n%s",
			r.Metrics["recall_bayes"], r.Metrics["recall_obd"], r.Table)
	}
}
