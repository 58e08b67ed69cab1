// Package pack is the declarative scenario layer of the reproduction:
// a versioned JSON manifest describing a complete operating scenario —
// topology, fault mix, environment profiles, seeds, duration and
// expected verdicts — compiled into the same engine.Option
// composition the hand-written scenario constructors produce.
//
// Before this layer existed every workload was Go code: the Fig. 10
// system, the scalability grid and the campaign mixes each hand-rolled
// their cluster wiring, so adding a scenario meant a code change in
// internal/scenario. A pack turns that into a data file:
//
//	{
//	  "pack": 1,
//	  "name": "highway-emi-corridor",
//	  "seed": 20050404,
//	  "rounds": 3000,
//	  "topology": {"kind": "fig10"},
//	  "environment": [
//	    {"profile": "emi-storm", "from_ms": 300, "to_ms": 2400,
//	     "period_ms": 300, "intensity": 0.7}
//	  ],
//	  "expect": {
//	    "verdicts": [{"fru": "component[0]", "class": "component-external"}]
//	  }
//	}
//
// Manifests are validated strictly: unknown fields, out-of-range rates
// and dangling FRU references are rejected with errors that name the
// offending field path and source line. The conformance runner
// (cmd/decos-conform) runs every pack against the DECOS, OBD and
// Bayesian classifiers and scores the verdicts against the pack's
// expectations.
//
// FaultSpec.Apply is the one applier for declared faults, expanded
// environment profiles, scenario plan entries and the campaign kinds'
// draws (FaultKind.Spec in scenario), so every fault is a FaultSpec the
// validator can judge. No code outside this package and internal/faults
// calls an injector primitive (TestFaultsOnlyAsData). CampaignKinds is
// the only list of the campaign kinds' names.
package pack

import (
	"math"

	"decos/internal/sim"
)

// Version is the manifest schema version this package reads and writes.
const Version = 1

// Limits applied during validation. They bound resource use of a single
// pack run, not the simulator itself.
const (
	MaxRounds      = 1_000_000
	MaxNodes       = 256
	MaxFaults      = 256
	MaxEnvEvents   = 256
	MaxEnvProfiles = 32
	// MaxRatePerHour caps transient episode rates at one per millisecond
	// on average; faster episodes follow each other at the same instant
	// and the run never advances.
	MaxRatePerHour = 3.6e6
)

// Manifest is one parsed, validated scenario pack.
type Manifest struct {
	// Pack is the schema version (must equal Version).
	Pack int `json:"pack"`
	// Name identifies the pack (lowercase slug).
	Name string `json:"name"`
	// Description is free documentation text.
	Description string `json:"description"`
	// Seed is the master seed of the run; every RNG stream derives from
	// it, so a pack is a pure function of its manifest.
	Seed uint64 `json:"seed"`
	// Rounds is the simulated horizon in TDMA rounds.
	Rounds int64 `json:"rounds"`
	// Classifier selects the diagnostic pipeline's classification stage
	// for plain (non-conformance) runs: "decos" (default), "obd" or
	// "bayes". The conformance runner ignores it — it always scores all
	// classifiers side by side.
	Classifier string `json:"classifier"`

	Topology    Topology     `json:"topology"`
	Faults      []FaultSpec  `json:"faults"`
	Environment []EnvProfile `json:"environment"`
	// Campaign, when present, turns the pack into a fleet campaign over
	// the topology (fig10 only) instead of a single-vehicle run.
	Campaign *CampaignSpec `json:"campaign"`
	Expect   Expect        `json:"expect"`

	// Source is the file the manifest was loaded from ("" for in-memory
	// manifests); it prefixes error and report locations.
	Source string `json:"-"`
}

// Horizon returns the simulated span of the run.
func (m *Manifest) Horizon() sim.Time {
	return sim.Time(m.Rounds * m.Topology.RoundDuration().Micros())
}

// Topology describes the cluster: its TDMA schedule and its FRU graph.
// Kind "custom" declares the graph here; "fig10" and "grid" name a
// generated one (Graph). Every kind is built by the one custom build and
// validated by the custom rules over its graph, which also bound each
// node's frame segments by slot_bytes and every channel id to [1, 60000).
type Topology struct {
	Kind string `json:"kind"` // "fig10" | "grid" | "custom"
	// Nodes is the component count (grid: required; fig10: fixed at 4;
	// custom: derived from Components).
	Nodes int `json:"nodes"`
	// SlotLenUS and SlotBytes dimension the uniform TDMA schedule.
	SlotLenUS int64 `json:"slot_len_us"`
	SlotBytes int   `json:"slot_bytes"`
	// DiagNode hosts the diagnostic DAS's analysis stage.
	DiagNode int `json:"diag_node"`

	// FRU graph (Kind == "custom" only; see Graph).
	Components []ComponentSpec `json:"components"`
	Signals    []SignalSpec    `json:"signals"`
	DASs       []DASSpec       `json:"dass"`
}

// SlotLen returns the TDMA slot length.
func (t *Topology) SlotLen() sim.Duration {
	return sim.Duration(t.SlotLenUS) * sim.Microsecond
}

// RoundDuration returns the TDMA round duration (uniform schedule: one
// slot per node).
func (t *Topology) RoundDuration() sim.Duration {
	return sim.Duration(t.Nodes) * t.SlotLen()
}

// ComponentSpec places one node computer (hardware FRU).
type ComponentSpec struct {
	ID   int     `json:"id"`
	Name string  `json:"name"`
	X    float64 `json:"x"`
	Y    float64 `json:"y"`
}

// SignalSpec registers one sinusoidal environment signal:
// amplitude·sin(2π·t/period) + offset.
type SignalSpec struct {
	Name      string  `json:"name"`
	Amplitude float64 `json:"amplitude"`
	PeriodMS  float64 `json:"period_ms"`
	Offset    float64 `json:"offset"`
}

// DASSpec declares a distributed application subsystem with its virtual
// networks and jobs.
type DASSpec struct {
	Name     string        `json:"name"`
	Critical bool          `json:"critical"`
	Networks []NetworkSpec `json:"networks"`
	Jobs     []JobSpec     `json:"jobs"`
}

// NetworkSpec declares a virtual network. Kind is "tt" (state semantics)
// or "et" (event semantics).
type NetworkSpec struct {
	Name      string         `json:"name"`
	Kind      string         `json:"kind"` // "tt" | "et"
	Endpoints []EndpointSpec `json:"endpoints"`
}

// EndpointSpec attaches a network to a node with a frame-segment byte
// allocation and (for ET networks) a send-queue capacity.
type EndpointSpec struct {
	Node       int `json:"node"`
	AllocBytes int `json:"alloc_bytes"`
	QueueCap   int `json:"queue_cap"`
}

// JobSpec deploys one job. Type selects the implementation; the
// remaining fields parameterize it. Produce/Subscribe declare the job's
// LIF channels in order.
type JobSpec struct {
	Name      string `json:"name"`
	Component int    `json:"component"`
	Partition int    `json:"partition"`
	Type      string `json:"type"` // sensor | control | actuator | bursty | sink | voter | observer

	// sensor
	Signal       string  `json:"signal"`
	PhysMin      float64 `json:"phys_min"`
	PhysMax      float64 `json:"phys_max"`
	FrozenWindow int     `json:"frozen_window"`
	// control
	In    int     `json:"in"`
	Gain  float64 `json:"gain"`
	InMin float64 `json:"in_min"`
	InMax float64 `json:"in_max"`
	// sensor/control/bursty/voter output channel
	Out int `json:"out"`
	// actuator
	Actuator string `json:"actuator"`
	// bursty
	MeanPerRound float64 `json:"mean_per_round"`
	// voter
	Ins       []int   `json:"ins"`
	Tolerance float64 `json:"tolerance"`
	// observer (consumes the latest state value, side-effect free)
	Watch int `json:"watch"`

	Produce   []ProduceSpec   `json:"produce"`
	Subscribe []SubscribeSpec `json:"subscribe"`
}

// ProduceSpec declares a published channel with its LIF specification.
type ProduceSpec struct {
	Network      string  `json:"network"`
	Channel      int     `json:"channel"`
	Name         string  `json:"name"`
	Min          float64 `json:"min"`
	Max          float64 `json:"max"`
	MaxAgeRounds int     `json:"max_age_rounds"`
	StuckRounds  int     `json:"stuck_rounds"`
	Sensor       bool    `json:"sensor"`
}

// SubscribeSpec attaches the job to a channel.
type SubscribeSpec struct {
	Channel   int  `json:"channel"`
	Capacity  int  `json:"capacity"`
	Overwrite bool `json:"overwrite"`
}

// FaultSpec is one declarative injection, routed through the engine's
// fault manifest (engine.WithFaults) so checkpoint restores reconstruct
// it. Kind names the injector primitive; the remaining fields
// parameterize it (validation enforces the per-kind requirements).
type FaultSpec struct {
	Kind string `json:"kind"`

	AtMS       float64 `json:"at_ms"`
	EndMS      float64 `json:"end_ms"`
	DurationMS float64 `json:"duration_ms"`

	// Hardware target (component node id); -1 when unset.
	Component int `json:"component"`
	// Software target ("DAS/job", e.g. "A/A1").
	Job string `json:"job"`
	// Channel targeted by job-level faults.
	Channel int `json:"channel"`

	// Probabilities and values.
	Rate      float64 `json:"rate"`      // drop/corruption probability per frame or send
	Value     float64 `json:"value"`     // stuck-at / bad output value
	Threshold float64 `json:"threshold"` // bohrbug trigger: inject when value > threshold
	Omit      bool    `json:"omit"`      // heisenbug: omit instead of corrupting

	// EMI geometry.
	X      float64 `json:"x"`
	Y      float64 `json:"y"`
	Radius float64 `json:"radius"`
	Bits   int     `json:"bits"`

	// Rates and drifts.
	DriftPPM        float64 `json:"drift_ppm"`
	DriftPerHour    float64 `json:"drift_per_hour"`
	RatePerHour     float64 `json:"rate_per_hour"`
	TauMS           float64 `json:"tau_ms"`
	BaseRatePerHour float64 `json:"base_rate_per_hour"`
	MaxFactor       float64 `json:"max_factor"`

	// Queue misconfiguration.
	QueueCap int `json:"queue_cap"`
}

// At returns the activation instant.
func (f *FaultSpec) At() sim.Time { return msToTime(f.AtMS) }

// End returns the deactivation instant (0 = open window).
func (f *FaultSpec) End() sim.Time { return msToTime(f.EndMS) }

// Duration returns the configured duration (0 = kind default).
func (f *FaultSpec) Duration() sim.Duration { return sim.Duration(msToTime(f.DurationMS)) }

// msToTime converts a manifest millisecond value to the nearest µs
// (1.001 ms is 1001 µs, which truncation would read as 1000 µs).
func msToTime(ms float64) sim.Time {
	return sim.Time(math.Round(ms * float64(sim.Millisecond)))
}

// EnvProfile is one environment stressor: a named physical process
// (vibration, thermal cycling, EMI storms, connector chatter, supply
// sags) mapped onto a deterministic series of injector activations with
// arithmetic phases — no randomness, so packs replay bit-identically
// and checkpoint restores reconstruct every activation.
type EnvProfile struct {
	Profile   string  `json:"profile"` // vibration | thermal-cycling | emi-storm | connector-chatter | power-sags
	FromMS    float64 `json:"from_ms"`
	ToMS      float64 `json:"to_ms"`
	PeriodMS  float64 `json:"period_ms"`
	Intensity float64 `json:"intensity"` // (0, 1]
	// Components targets specific nodes; empty targets every component
	// except the diagnostic node.
	Components []int `json:"components"`
}

// CampaignSpec turns the pack into a fleet campaign: Vehicles
// independent realizations of the topology, each with faults drawn from
// Mix (scenario.Campaign semantics).
type CampaignSpec struct {
	Vehicles         int     `json:"vehicles"`
	FaultFreeShare   float64 `json:"fault_free_share"`
	FaultsPerVehicle int     `json:"faults_per_vehicle"`
	// Mix weights fault kinds by campaign kind name (scenario.FaultKind
	// strings); empty uses the default field distribution.
	Mix map[string]float64 `json:"mix"`
}

// VerdictExpect asserts one diagnostic outcome: the named FRU carries a
// verdict whose class matches (core.FaultClass.Matches equivalences
// honored) and, when Action is set, whose advised action equals it.
// Classifier scopes the assertion ("decos", "obd", "bayes", "" = all).
type VerdictExpect struct {
	FRU        string `json:"fru"`
	Class      string `json:"class"`
	Action     string `json:"action"`
	Classifier string `json:"classifier"`
}

// Expect is the pack's scored contract. Every assertion contributes one
// check to the conformance score; MinScore / MinScoreOBD / MinScoreBayes
// set the pass thresholds per classifier (DECOS defaults to 1.0, OBD and
// Bayes to 0 — the alternatives are scored and reported but only gate
// when asked to).
type Expect struct {
	// Healthy asserts a clean bill: no standing verdicts and no removal
	// advice on any hardware FRU.
	Healthy bool `json:"healthy"`
	// MaxFalseAlarms bounds removal recommendations for FRUs that were
	// never a culprit (-1 = unchecked).
	MaxFalseAlarms int             `json:"max_false_alarms"`
	Verdicts       []VerdictExpect `json:"verdicts"`
	MinScore       float64         `json:"min_score"`
	MinScoreOBD    float64         `json:"min_score_obd"`
	MinScoreBayes  float64         `json:"min_score_bayes"`

	// Campaign expectations (campaign packs only).
	MinClassAccuracy float64 `json:"min_class_accuracy"`
	MaxNFFRatio      float64 `json:"max_nff_ratio"` // -1 = unchecked
	DECOSBeatsOBD    bool    `json:"decos_beats_obd"`
}
