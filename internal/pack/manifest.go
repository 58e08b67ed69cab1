// Package pack is the declarative scenario layer of the reproduction:
// a versioned JSON manifest describing a complete operating scenario —
// topology, fault mix, environment profiles, diagnosis tuning, seeds,
// duration and expected verdicts — compiled into the same engine.Option
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
package pack

import "decos/internal/sim"

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
)

// Manifest is one parsed, validated scenario pack.
type Manifest struct {
	// Pack is the schema version (must equal Version).
	Pack int
	// Name identifies the pack (lowercase slug).
	Name string
	// Description is free documentation text.
	Description string
	// Seed is the master seed of the run; every RNG stream derives from
	// it, so a pack is a pure function of its manifest.
	Seed uint64
	// Rounds is the simulated horizon in TDMA rounds.
	Rounds int64
	// Classifier selects the diagnostic pipeline's classification stage
	// for plain (non-conformance) runs: "decos" (default), "obd" or
	// "bayes". The conformance runner ignores it — it always scores all
	// classifiers side by side.
	Classifier string

	Topology    Topology
	Diagnosis   DiagnosisSpec
	Faults      []FaultSpec
	Environment []EnvProfile
	// Campaign, when present, turns the pack into a fleet campaign over
	// the topology (fig10 only) instead of a single-vehicle run.
	Campaign *CampaignSpec
	Expect   Expect

	// Source is the file the manifest was loaded from ("" for in-memory
	// manifests); it prefixes error and report locations.
	Source string
}

// Horizon returns the simulated span of the run.
func (m *Manifest) Horizon() sim.Time {
	return sim.Time(m.Rounds * m.Topology.RoundDuration().Micros())
}

// ClockSpec mirrors engine.ClockSpec in manifest form.
type ClockSpec struct {
	MaxDriftPPM float64
	JitterUS    float64
	PrecisionUS float64
	Tolerated   int
}

// DefaultClocks is the clock ensemble every current scenario uses.
func DefaultClocks() ClockSpec {
	return ClockSpec{MaxDriftPPM: 50, JitterUS: 0, PrecisionUS: 20, Tolerated: 1}
}

// Topology describes the cluster graph. Kind selects either a built-in
// topology ("fig10", "grid") or a fully declarative custom FRU graph
// ("custom") listing components, environment signals and DASs.
type Topology struct {
	Kind string // "fig10" | "grid" | "custom"
	// Nodes is the component count (grid: required; fig10: fixed at 4;
	// custom: derived from Components).
	Nodes int
	// SlotLenUS and SlotBytes dimension the uniform TDMA schedule.
	SlotLenUS int64
	SlotBytes int
	// DiagNode hosts the diagnostic DAS's analysis stage.
	DiagNode int
	Clocks   ClockSpec

	// Custom graph (Kind == "custom").
	Components []ComponentSpec
	Signals    []SignalSpec
	DASs       []DASSpec
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
	ID   int
	Name string
	X, Y float64
}

// SignalSpec registers one sinusoidal environment signal:
// amplitude·sin(2π·t/period) + offset.
type SignalSpec struct {
	Name      string
	Amplitude float64
	PeriodMS  float64
	Offset    float64
}

// DASSpec declares a distributed application subsystem with its virtual
// networks and jobs.
type DASSpec struct {
	Name     string
	Critical bool
	Networks []NetworkSpec
	Jobs     []JobSpec
}

// NetworkSpec declares a virtual network. Kind is "tt" (state semantics)
// or "et" (event semantics).
type NetworkSpec struct {
	Name      string
	Kind      string // "tt" | "et"
	Endpoints []EndpointSpec
}

// EndpointSpec attaches a network to a node with a frame-segment byte
// allocation and (for ET networks) a send-queue capacity.
type EndpointSpec struct {
	Node       int
	AllocBytes int
	QueueCap   int
}

// JobSpec deploys one job. Type selects the implementation; the
// remaining fields parameterize it. Produce/Subscribe declare the job's
// LIF channels in order.
type JobSpec struct {
	Name      string
	Component int
	Partition int
	Type      string // sensor | control | actuator | bursty | sink | voter | observer

	// sensor
	Signal       string
	PhysMin      float64
	PhysMax      float64
	FrozenWindow int
	// control
	In    int
	Gain  float64
	InMin float64
	InMax float64
	// sensor/control/bursty/voter output channel
	Out int
	// actuator
	Actuator string
	// bursty
	MeanPerRound float64
	// voter
	Ins       []int
	Tolerance float64
	// observer (consumes the latest state value, side-effect free)
	Watch int

	Produce   []ProduceSpec
	Subscribe []SubscribeSpec
}

// ProduceSpec declares a published channel with its LIF specification.
type ProduceSpec struct {
	Network      string
	Channel      int
	Name         string
	Min, Max     float64
	MaxAgeRounds int
	StuckRounds  int
	Sensor       bool
}

// SubscribeSpec attaches the job to a channel.
type SubscribeSpec struct {
	Channel   int
	Capacity  int
	Overwrite bool
}

// DiagnosisSpec overrides a subset of diagnosis.Options. Zero values
// keep the defaults (diagnosis.DefaultOptions), exactly like the Go API.
type DiagnosisSpec struct {
	EpochRounds           int64
	WindowGranules        int64
	RetainGranules        int64
	ProximityRadius       float64
	BurstGranules         int64
	MultiBitThreshold     float64
	PermanentWindow       int64
	PermanentDuty         float64
	RiseFactor            float64
	AlphaK                float64
	AlphaThreshold        float64
	MinRecurrentGranules  int
	OverflowMin           int
	JobInternalAssertions bool
}

// FaultSpec is one declarative injection, routed through the engine's
// fault manifest (engine.WithFaults) so checkpoint restores reconstruct
// it. Kind names the injector primitive; the remaining fields
// parameterize it (validation enforces the per-kind requirements).
type FaultSpec struct {
	Kind string

	AtMS       float64
	EndMS      float64
	DurationMS float64

	// Hardware target (component node id); -1 when unset.
	Component int
	// Software target ("DAS/job", e.g. "A/A1").
	Job string
	// Channel targeted by job-level faults.
	Channel int

	// Probabilities and values.
	Rate      float64 // drop/corruption probability per frame or send
	Value     float64 // stuck-at / bad output value
	Threshold float64 // bohrbug trigger: inject when value > threshold
	Omit      bool    // heisenbug: omit instead of corrupting

	// EMI geometry.
	X, Y, Radius float64
	Bits         int

	// Rates and drifts.
	DriftPPM        float64
	DriftPerHour    float64
	RatePerHour     float64
	TauMS           float64
	BaseRatePerHour float64
	MaxFactor       float64

	// Queue misconfiguration.
	QueueCap int
}

// At returns the activation instant.
func (f *FaultSpec) At() sim.Time { return msToTime(f.AtMS) }

// End returns the deactivation instant (0 = open window).
func (f *FaultSpec) End() sim.Time { return msToTime(f.EndMS) }

// Duration returns the configured duration (0 = kind default).
func (f *FaultSpec) Duration() sim.Duration { return sim.Duration(msToTime(f.DurationMS)) }

func msToTime(ms float64) sim.Time {
	return sim.Time(ms * float64(sim.Millisecond))
}

// EnvProfile is one environment stressor: a named physical process
// (vibration, thermal cycling, EMI storms, connector chatter, supply
// sags) mapped onto a deterministic series of injector activations with
// arithmetic phases — no randomness, so packs replay bit-identically
// and checkpoint restores reconstruct every activation.
type EnvProfile struct {
	Profile   string // vibration | thermal-cycling | emi-storm | connector-chatter | power-sags
	FromMS    float64
	ToMS      float64
	PeriodMS  float64
	Intensity float64 // (0, 1]
	// Components targets specific nodes; empty targets every component
	// except the diagnostic node.
	Components []int
}

// CampaignSpec turns the pack into a fleet campaign: Vehicles
// independent realizations of the topology, each with faults drawn from
// Mix (scenario.Campaign semantics).
type CampaignSpec struct {
	Vehicles         int
	FaultFreeShare   float64
	FaultsPerVehicle int
	// Mix weights fault kinds by campaign kind name (scenario.FaultKind
	// strings); empty uses the default field distribution.
	Mix map[string]float64
}

// VerdictExpect asserts one diagnostic outcome: the named FRU carries a
// verdict whose class matches (core.FaultClass.Matches equivalences
// honored) and, when Action is set, whose advised action equals it.
// Classifier scopes the assertion ("decos", "obd", "bayes", "" = all).
type VerdictExpect struct {
	FRU        string
	Class      string
	Action     string
	Classifier string
}

// Expect is the pack's scored contract. Every assertion contributes one
// check to the conformance score; MinScore / MinScoreOBD / MinScoreBayes
// set the pass thresholds per classifier (DECOS defaults to 1.0, OBD and
// Bayes to 0 — the alternatives are scored and reported but only gate
// when asked to).
type Expect struct {
	// Healthy asserts a clean bill: no standing verdicts and no removal
	// advice on any hardware FRU.
	Healthy bool
	// MaxFalseAlarms bounds removal recommendations for FRUs that were
	// never a culprit (-1 = unchecked).
	MaxFalseAlarms int
	Verdicts       []VerdictExpect
	MinScore       float64
	MinScoreOBD    float64
	MinScoreBayes  float64

	// Campaign expectations (campaign packs only).
	MinClassAccuracy float64
	MaxNFFRatio      float64 // -1 = unchecked
	DECOSBeatsOBD    bool
}
