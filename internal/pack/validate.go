package pack

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"decos/internal/core"
	"decos/internal/diagnosis"
)

// Fault kinds a manifest may declare. Each maps onto one injector
// primitive of internal/faults (applied in apply.go).
var faultKinds = map[string]bool{
	"emi-burst":          true,
	"seu":                true,
	"power-dip":          true,
	"connector-tx":       true,
	"connector-rx":       true,
	"wearout":            true,
	"intermittent":       true,
	"permanent-silent":   true,
	"permanent-babbling": true,
	"quartz":             true,
	"transient-quartz":   true,
	"misconfig-queue":    true,
	"bohrbug":            true,
	"heisenbug":          true,
	"job-crash":          true,
	"sensor-stuck":       true,
	"sensor-drift":       true,
}

// Environment profiles a manifest may declare (expanded in env.go).
var envProfiles = map[string]bool{
	"vibration":         true,
	"thermal-cycling":   true,
	"emi-storm":         true,
	"connector-chatter": true,
	"power-sags":        true,
}

// CampaignKinds are the names of the campaign fault kinds, the ones a
// campaign mix may weight, in scenario.FaultKind order. This is the only
// list of them: FaultKind.String and scenario.ParseKind read it (pack
// cannot import scenario, so the list lives here).
var CampaignKinds = []string{
	"emi", "seu", "connector-tx", "connector-rx", "wearout",
	"intermittent", "permanent", "quartz", "config", "bohrbug",
	"heisenbug", "job-crash", "sensor-stuck", "sensor-drift", "power-dip",
}

// topologyInfo is the validator's view of the resolved topology: which
// components exist and which DAS/job pairs faults may target.
type topologyInfo struct {
	nodes int
	// jobs maps "DAS/job" → the channels the job subscribes.
	jobs map[string][]int
	// signals defined by the topology (sensor jobs must reference one).
	signals map[string]bool
	// produced holds the channels the graph's jobs declared so far: the
	// build wires jobs in declaration order, and a subscription needs its
	// channel already declared.
	produced map[int]bool
}

// Validate checks the manifest's semantic rules — topology shape, fault
// parameter ranges, dangling FRU/job references, expectation classes —
// and fills topology defaults (slot spec, diagnosis node). Parse and
// Load call it; manifests constructed in Go can call it directly.
func (m *Manifest) Validate() error {
	v := &validator{m: m}
	v.run()
	return v.err
}

type validator struct {
	m   *Manifest
	err error
}

func (v *validator) failf(field, format string, args ...any) {
	if v.err == nil {
		v.err = errf(v.m.Source, 0, field, format, args...)
	}
}

func (v *validator) run() {
	m := v.m
	if m.Pack != Version {
		v.failf("pack", "unsupported schema version %d (this build reads version %d)", m.Pack, Version)
		return
	}
	if m.Name == "" {
		v.failf("name", "required")
	} else if !isSlug(m.Name) {
		v.failf("name", "must be a lowercase slug (a-z, 0-9, '-'), got %q", m.Name)
	}
	if m.Rounds < 1 || m.Rounds > MaxRounds {
		v.failf("rounds", "must be in [1, %d], got %d", MaxRounds, m.Rounds)
	}
	if err := CheckClassifier(m.Classifier); err != nil {
		v.failf("classifier", "%v", err)
	}
	info := v.topology()
	if v.err != nil {
		return
	}
	v.faults(info)
	v.environment(info)
	v.campaign()
	v.expect(info)
}

func isSlug(s string) bool {
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
		default:
			return false
		}
	}
	return s != "" && s[0] != '-' && s[len(s)-1] != '-'
}

// topology validates the topology section, fills its defaults and
// returns the resolved info for cross-reference checks.
func (v *validator) topology() *topologyInfo {
	t := &v.m.Topology
	slotBytes := 256
	switch t.Kind {
	case "fig10":
		if t.Nodes != 0 && t.Nodes != 4 {
			v.failf("topology.nodes", "fig10 is a 4-component system, got %d", t.Nodes)
		}
		t.Nodes = 4
	case "grid":
		if t.Nodes < 3 {
			v.failf("topology.nodes", "grid needs at least 3 components, got %d", t.Nodes)
			return nil
		}
		if t.Nodes > MaxNodes {
			v.failf("topology.nodes", "must be ≤ %d, got %d", MaxNodes, t.Nodes)
			return nil
		}
		slotBytes = 160
	case "custom":
	case "":
		v.failf("topology.kind", "required (one of fig10, grid, custom)")
		return nil
	default:
		v.failf("topology.kind", "unknown kind %q (one of fig10, grid, custom)", t.Kind)
		return nil
	}
	if t.Kind != "custom" && (len(t.Components) > 0 || len(t.Signals) > 0 || len(t.DASs) > 0) {
		v.failf("topology", "components/signals/dass are only valid for kind \"custom\"")
		return nil
	}
	return v.customTopology(t, t.Graph(), slotBytes)
}

// customTopology validates the FRU graph g of topology t — t itself for
// kind custom, the generated graph for fig10 and grid — fills t's
// schedule defaults (slot_bytes defaulting to slotBytes) and returns the
// resolved info for cross-reference checks.
func (v *validator) customTopology(t, g *Topology, slotBytes int) *topologyInfo {
	if len(g.Components) == 0 {
		v.failf("topology.components", "custom topology requires at least one component")
		return nil
	}
	if len(g.Components) > MaxNodes {
		v.failf("topology.components", "must be ≤ %d components, got %d", MaxNodes, len(g.Components))
		return nil
	}
	// Ids are dense, 0..n-1: the TDMA schedule assigns one slot per node.
	n := len(g.Components)
	seen := make([]bool, n)
	for i, c := range g.Components {
		field := fmt.Sprintf("topology.components[%d]", i)
		if c.ID < 0 || c.ID >= n {
			v.failf(field+".id", "must be in [0, %d) (component ids are dense), got %d", n, c.ID)
			return nil
		}
		if c.Name == "" {
			v.failf(field+".name", "required")
		}
		if seen[c.ID] {
			v.failf(field+".id", "duplicate component id %d", c.ID)
		}
		seen[c.ID] = true
	}
	if t.Nodes == 0 {
		t.Nodes = n
	}
	if t.Nodes != n {
		v.failf("topology.nodes", "must equal the component count %d, got %d", n, t.Nodes)
	}
	// The TDMA defaults: 250 µs slots of slotBytes, diagnosis on the
	// last node (fig10: its node 3).
	if t.SlotLenUS < 1 {
		t.SlotLenUS = 250
	}
	if t.SlotBytes < 1 {
		t.SlotBytes = slotBytes
	}
	if t.DiagNode < 0 {
		t.DiagNode = t.Nodes - 1
	}
	if t.DiagNode >= t.Nodes {
		v.failf("topology.diag_node", "must be < %d, got %d", t.Nodes, t.DiagNode)
	}

	info := &topologyInfo{nodes: t.Nodes, jobs: map[string][]int{}, signals: map[string]bool{}, produced: map[int]bool{}}
	for i, s := range g.Signals {
		field := fmt.Sprintf("topology.signals[%d]", i)
		if s.Name == "" {
			v.failf(field+".name", "required")
		}
		if s.PeriodMS <= 0 {
			v.failf(field+".period_ms", "must be > 0, got %g", s.PeriodMS)
		}
		info.signals[s.Name] = true
	}
	if len(g.DASs) == 0 {
		v.failf("topology.dass", "custom topology requires at least one DAS")
		return info
	}
	dasNames := map[string]bool{}
	for di, das := range g.DASs {
		v.customDAS(di, das, info, dasNames)
	}
	if v.err == nil {
		v.frameBudget(t, g)
	}
	return info
}

// frameBudget checks the frame layout the fabric seals: on every node
// the endpoints' segments plus the diagnostic DAS's own (the default
// DiagAllocBytes, which a pack cannot resize) must fit one slot's
// payload. A custom pack's error names the node's last-declared
// endpoint; a fig10 or grid pack's names slot_bytes, the only field of
// the layout its author wrote.
func (v *validator) frameBudget(t, g *Topology) {
	diagBytes := diagnosis.DefaultOptions().DiagAllocBytes
	for node := 0; node < t.Nodes; node++ {
		need, field := diagBytes, "topology.slot_bytes"
		for di, das := range g.DASs {
			for ni, net := range das.Networks {
				for ei, ep := range net.Endpoints {
					if ep.Node != node {
						continue
					}
					// Saturate: the sum must not wrap past the slot.
					need = min(need, math.MaxInt-ep.AllocBytes) + ep.AllocBytes
					if g == t {
						field = fmt.Sprintf("topology.dass[%d].networks[%d].endpoints[%d].alloc_bytes", di, ni, ei)
					}
				}
			}
		}
		if need > t.SlotBytes {
			v.failf(field, "node %d needs %d bytes (its endpoints plus the %d-byte diagnostic segment), slot_bytes is %d",
				node, need, diagBytes, t.SlotBytes)
			return
		}
	}
}

// customDAS validates one DAS of a custom topology and registers its
// jobs into info.
func (v *validator) customDAS(di int, das DASSpec, info *topologyInfo, dasNames map[string]bool) {
	field := fmt.Sprintf("topology.dass[%d]", di)
	if das.Name == "" {
		v.failf(field+".name", "required")
		return
	}
	if strings.ContainsAny(das.Name, "/@[]") {
		v.failf(field+".name", "must not contain '/', '@' or brackets (FRU syntax), got %q", das.Name)
	}
	if dasNames[das.Name] {
		v.failf(field+".name", "duplicate DAS %q", das.Name)
	}
	dasNames[das.Name] = true

	nets := map[string]map[int]bool{} // name → nodes with an endpoint
	for ni, net := range das.Networks {
		nf := fmt.Sprintf("%s.networks[%d]", field, ni)
		if net.Name == "" {
			v.failf(nf+".name", "required")
			continue
		}
		if net.Kind != "tt" && net.Kind != "et" {
			v.failf(nf+".kind", "must be \"tt\" or \"et\", got %q", net.Kind)
		}
		if _, dup := nets[net.Name]; dup {
			v.failf(nf+".name", "duplicate network %q", net.Name)
		}
		nodes := map[int]bool{}
		nets[net.Name] = nodes
		if len(net.Endpoints) == 0 {
			v.failf(nf+".endpoints", "network needs at least one endpoint")
		}
		for ei, ep := range net.Endpoints {
			ef := fmt.Sprintf("%s.endpoints[%d]", nf, ei)
			if ep.Node < 0 || ep.Node >= info.nodes {
				v.failf(ef+".node", "must be in [0, %d), got %d", info.nodes, ep.Node)
			}
			if ep.AllocBytes <= 0 {
				v.failf(ef+".alloc_bytes", "must be > 0, got %d", ep.AllocBytes)
			}
			if net.Kind == "et" && ep.QueueCap <= 0 {
				v.failf(ef+".queue_cap", "event-triggered endpoints need a send-queue capacity")
			}
			if nodes[ep.Node] {
				v.failf(ef+".node", "node %d already has an endpoint on this network", ep.Node)
			}
			nodes[ep.Node] = true
		}
	}
	if len(das.Jobs) == 0 {
		v.failf(field+".jobs", "DAS needs at least one job")
	}
	for ji, job := range das.Jobs {
		v.customJob(field, das.Name, ji, job, info, nets)
	}
}

func (v *validator) customJob(dasField, dasName string, ji int, job JobSpec, info *topologyInfo, nets map[string]map[int]bool) {
	field := fmt.Sprintf("%s.jobs[%d]", dasField, ji)
	if job.Name == "" {
		v.failf(field+".name", "required")
		return
	}
	if strings.ContainsAny(job.Name, "/@[]") {
		v.failf(field+".name", "must not contain '/', '@' or brackets (FRU syntax), got %q", job.Name)
	}
	if job.Component < 0 || job.Component >= info.nodes {
		v.failf(field+".component", "must be in [0, %d), got %d", info.nodes, job.Component)
	}
	if job.Partition < 0 {
		v.failf(field+".partition", "must be ≥ 0, got %d", job.Partition)
	}
	ref := dasName + "/" + job.Name
	if _, dup := info.jobs[ref]; dup {
		v.failf(field+".name", "duplicate job %q in DAS %q", job.Name, dasName)
	}
	info.jobs[ref] = nil

	var produces []int
	for pi, p := range job.Produce {
		pf := fmt.Sprintf("%s.produce[%d]", field, pi)
		endpoints, ok := nets[p.Network]
		if !ok {
			v.failf(pf+".network", "unknown network %q in DAS %q", p.Network, dasName)
		}
		v.channel(pf+".channel", p.Channel)
		if p.Name == "" {
			v.failf(pf+".name", "required")
		}
		if p.Min >= p.Max {
			v.failf(pf, "min %g must be < max %g", p.Min, p.Max)
		}
		if ok && !endpoints[job.Component] {
			v.failf(pf+".network", "component %d has no endpoint on network %q", job.Component, p.Network)
		}
		if info.produced[p.Channel] {
			v.failf(pf+".channel", "channel %d is already produced (channel ids are cluster-wide)", p.Channel)
		}
		info.produced[p.Channel] = true
		produces = append(produces, p.Channel)
	}
	for si, s := range job.Subscribe {
		sf := fmt.Sprintf("%s.subscribe[%d]", field, si)
		v.channel(sf+".channel", s.Channel)
		if s.Capacity < 0 {
			v.failf(sf+".capacity", "must be ≥ 0, got %d", s.Capacity)
		}
		if !info.produced[s.Channel] {
			v.failf(sf+".channel", "channel %d is not produced by this job or one declared before it", s.Channel)
		}
		info.jobs[ref] = append(info.jobs[ref], s.Channel)
	}

	// The job reads only channels it subscribes and sends only on
	// channels it produces.
	port := func(key string, ch int, ports []int, list string) {
		v.channel(field+"."+key, ch)
		if !slices.Contains(ports, ch) {
			v.failf(field+"."+key, "channel %d is not in this job's %s list", ch, list)
		}
	}
	in := func(key string, ch int) { port(key, ch, info.jobs[ref], "subscribe") }
	out := func() { port("out", job.Out, produces, "produce") }
	switch job.Type {
	case "sensor":
		if !info.signals[job.Signal] {
			v.failf(field+".signal", "unknown signal %q (declare it in topology.signals)", job.Signal)
		}
		out()
	case "control":
		in("in", job.In)
		out()
	case "actuator":
		in("in", job.In)
		if job.Actuator == "" {
			v.failf(field+".actuator", "required")
		}
	case "bursty":
		out()
		if job.MeanPerRound <= 0 {
			v.failf(field+".mean_per_round", "must be > 0, got %g", job.MeanPerRound)
		}
	case "sink":
		in("in", job.In)
	case "voter":
		if len(job.Ins) != 3 {
			v.failf(field+".ins", "voter needs exactly 3 input channels, got %d", len(job.Ins))
		}
		for i, ch := range job.Ins {
			in(fmt.Sprintf("ins[%d]", i), ch)
		}
		out()
	case "observer":
		in("watch", job.Watch)
	case "":
		v.failf(field+".type", "required (sensor, control, actuator, bursty, sink, voter, observer)")
	default:
		v.failf(field+".type", "unknown type %q (sensor, control, actuator, bursty, sink, voter, observer)", job.Type)
	}
}

// channel checks a channel id field. Ids are vnet.ChannelIDs: 0 pads
// frames, and the diagnostic DAS owns DiagChannelBase and up.
func (v *validator) channel(field string, ch int) {
	if ch < 1 || ch >= int(diagnosis.DiagChannelBase) {
		v.failf(field, "channel must be in [1, %d), got %d", diagnosis.DiagChannelBase, ch)
	}
}

// faults validates every fault spec against the resolved topology.
func (v *validator) faults(info *topologyInfo) {
	if len(v.m.Faults) > MaxFaults {
		v.failf("faults", "too many faults (%d > %d)", len(v.m.Faults), MaxFaults)
		return
	}
	horizonMS := float64(v.m.Horizon()) / 1000
	for i, f := range v.m.Faults {
		field := fmt.Sprintf("faults[%d]", i)
		if !faultKinds[f.Kind] {
			v.failf(field+".kind", "unknown kind %q (known: %s)", f.Kind, strings.Join(sortedKeys(faultKinds), ", "))
			return
		}
		if f.AtMS < 0 {
			v.failf(field+".at_ms", "must be ≥ 0, got %g", f.AtMS)
		}
		if f.AtMS > horizonMS {
			v.failf(field+".at_ms", "activation at %gms is past the run horizon (%gms = rounds × round length)", f.AtMS, horizonMS)
		}
		if f.EndMS != 0 && f.EndMS <= f.AtMS {
			v.failf(field+".end_ms", "must be after at_ms (%g ≤ %g)", f.EndMS, f.AtMS)
		}
		if f.DurationMS < 0 {
			v.failf(field+".duration_ms", "must be ≥ 0, got %g", f.DurationMS)
		}
		v.faultKind(field, &v.m.Faults[i], info)
	}
}

// faultKind enforces the per-kind parameter requirements.
func (v *validator) faultKind(field string, f *FaultSpec, info *topologyInfo) {
	needComp := func() {
		if f.Component < 0 || f.Component >= info.nodes {
			v.failf(field+".component", "kind %q targets a component: must be in [0, %d), got %d", f.Kind, info.nodes, f.Component)
		}
	}
	needJob := func() {
		if f.Job == "" {
			v.failf(field+".job", "kind %q targets a job (\"DAS/job\")", f.Kind)
			return
		}
		if _, ok := info.jobs[f.Job]; !ok {
			v.failf(field+".job", "unknown job %q (topology defines: %s)", f.Job, strings.Join(sortedKeys(info.jobs), ", "))
		}
	}
	needRate01 := func(key string, rate float64) {
		if rate <= 0 || rate > 1 {
			v.failf(field+"."+key, "must be in (0, 1], got %g", rate)
		}
	}
	needChannel := func() {
		needJob()
		v.channel(field+".channel", f.Channel)
	}
	switch f.Kind {
	case "emi-burst":
		if f.Radius <= 0 {
			v.failf(field+".radius", "must be > 0, got %g", f.Radius)
		}
		if f.Bits < 1 {
			v.failf(field+".bits", "must be ≥ 1, got %d", f.Bits)
		}
		if f.Component >= 0 {
			// A component-targeted burst is centred on that component.
			needComp()
		}
	case "seu", "power-dip", "permanent-silent", "permanent-babbling":
		needComp()
	case "connector-tx", "connector-rx":
		needComp()
		needRate01("rate", f.Rate)
	case "wearout":
		needComp()
		if f.TauMS <= 0 {
			v.failf(field+".tau_ms", "must be > 0, got %g", f.TauMS)
		}
		if f.BaseRatePerHour <= 0 {
			v.failf(field+".base_rate_per_hour", "must be > 0, got %g", f.BaseRatePerHour)
		}
		if f.MaxFactor < 1 {
			v.failf(field+".max_factor", "must be ≥ 1, got %g", f.MaxFactor)
		}
		if f.BaseRatePerHour*f.MaxFactor > MaxRatePerHour {
			v.failf(field+".base_rate_per_hour", "accelerated rate %g/h exceeds %g/h", f.BaseRatePerHour*f.MaxFactor, MaxRatePerHour)
		}
	case "intermittent":
		needComp()
		if f.RatePerHour <= 0 {
			v.failf(field+".rate_per_hour", "must be > 0, got %g", f.RatePerHour)
		}
		if f.RatePerHour > MaxRatePerHour {
			v.failf(field+".rate_per_hour", "must be ≤ %g, got %g", MaxRatePerHour, f.RatePerHour)
		}
	case "quartz", "transient-quartz":
		needComp()
		if f.DriftPPM == 0 {
			v.failf(field+".drift_ppm", "required (non-zero oscillator drift)")
		}
		if f.Kind == "transient-quartz" && f.DurationMS <= 0 {
			v.failf(field+".duration_ms", "transient quartz drift needs a window, got %g", f.DurationMS)
		}
	case "misconfig-queue":
		needChannel()
		if f.QueueCap < 1 {
			v.failf(field+".queue_cap", "must be ≥ 1, got %d", f.QueueCap)
		}
		if subs, ok := info.jobs[f.Job]; ok && !slices.Contains(subs, f.Channel) {
			v.failf(field+".channel", "job %q does not subscribe channel %d", f.Job, f.Channel)
		}
	case "bohrbug":
		needChannel()
	case "heisenbug":
		needChannel()
		needRate01("rate", f.Rate)
	case "job-crash", "sensor-stuck":
		needJob()
	case "sensor-drift":
		needJob()
		if f.DriftPerHour == 0 {
			v.failf(field+".drift_per_hour", "required (non-zero drift)")
		}
	}
}

func (v *validator) environment(info *topologyInfo) {
	if len(v.m.Environment) > MaxEnvProfiles {
		v.failf("environment", "too many profiles (%d > %d)", len(v.m.Environment), MaxEnvProfiles)
		return
	}
	horizonMS := float64(v.m.Horizon()) / 1000
	for i, e := range v.m.Environment {
		field := fmt.Sprintf("environment[%d]", i)
		if !envProfiles[e.Profile] {
			v.failf(field+".profile", "unknown profile %q (known: %s)", e.Profile, strings.Join(sortedKeys(envProfiles), ", "))
			return
		}
		if e.FromMS < 0 {
			v.failf(field+".from_ms", "must be ≥ 0, got %g", e.FromMS)
		}
		if e.ToMS <= e.FromMS {
			v.failf(field+".to_ms", "must be after from_ms (%g ≤ %g)", e.ToMS, e.FromMS)
		}
		if e.ToMS > horizonMS {
			v.failf(field+".to_ms", "window ends at %gms, past the run horizon (%gms)", e.ToMS, horizonMS)
		}
		if e.PeriodMS <= 0 {
			v.failf(field+".period_ms", "must be > 0, got %g", e.PeriodMS)
		}
		if e.Intensity <= 0 || e.Intensity > 1 {
			v.failf(field+".intensity", "must be in (0, 1], got %g", e.Intensity)
		}
		events := (e.ToMS - e.FromMS) / e.PeriodMS
		if events > MaxEnvEvents {
			v.failf(field+".period_ms", "profile expands to %.0f events (> %d): raise period_ms or shrink the window", events, MaxEnvEvents)
		}
		for j, c := range e.Components {
			if c < 0 || c >= info.nodes {
				v.failf(fmt.Sprintf("%s.components[%d]", field, j), "must be in [0, %d), got %d", info.nodes, c)
			}
		}
	}
}

func (v *validator) campaign() {
	c := v.m.Campaign
	if c == nil {
		return
	}
	if v.m.Topology.Kind != "fig10" {
		v.failf("campaign", "campaigns run over the fig10 topology, got %q", v.m.Topology.Kind)
	}
	if len(v.m.Faults) > 0 || len(v.m.Environment) > 0 {
		v.failf("campaign", "campaign packs draw faults from the mix; faults/environment sections are not allowed")
	}
	if c.Vehicles < 1 {
		v.failf("campaign.vehicles", "must be ≥ 1, got %d", c.Vehicles)
	}
	if c.FaultFreeShare < 0 || c.FaultFreeShare > 1 {
		v.failf("campaign.fault_free_share", "must be in [0, 1], got %g", c.FaultFreeShare)
	}
	if c.FaultsPerVehicle < 0 {
		v.failf("campaign.faults_per_vehicle", "must be ≥ 0, got %d", c.FaultsPerVehicle)
	}
	for kind, w := range c.Mix {
		if !slices.Contains(CampaignKinds, kind) {
			v.failf("campaign.mix."+kind, "unknown campaign fault kind (known: %s)", strings.Join(CampaignKinds, ", "))
			return
		}
		if w < 0 {
			v.failf("campaign.mix."+kind, "weight must be ≥ 0, got %g", w)
		}
	}
}

func (v *validator) expect(info *topologyInfo) {
	e := &v.m.Expect
	for _, r := range []struct {
		key string
		x   float64
	}{{"min_score", e.MinScore}, {"min_score_obd", e.MinScoreOBD},
		{"min_score_bayes", e.MinScoreBayes}, {"min_class_accuracy", e.MinClassAccuracy}} {
		if r.x < 0 || r.x > 1 {
			v.failf("expect."+r.key, "must be in [0, 1], got %g", r.x)
		}
	}
	if e.Healthy && len(e.Verdicts) > 0 {
		v.failf("expect.healthy", "healthy packs cannot also expect verdicts")
	}
	if v.m.Campaign != nil && (e.Healthy || len(e.Verdicts) > 0) {
		v.failf("expect", "campaign packs score fleet aggregates (min_class_accuracy, max_nff_ratio, decos_beats_obd), not per-FRU verdicts")
	}
	for i, ve := range e.Verdicts {
		field := fmt.Sprintf("expect.verdicts[%d]", i)
		fru, err := core.ParseFRU(ve.FRU)
		if err != nil {
			v.failf(field+".fru", "%v", err)
			continue
		}
		if fru.IsHardware() {
			if fru.Component < 0 || fru.Component >= info.nodes {
				v.failf(field+".fru", "component %d out of range [0, %d)", fru.Component, info.nodes)
			}
		} else {
			ref := jobRefOf(ve.FRU)
			if _, ok := info.jobs[ref]; !ok {
				v.failf(field+".fru", "unknown job FRU %q (topology defines: %s)", ve.FRU, strings.Join(sortedKeys(info.jobs), ", "))
			}
		}
		if ve.Class == "" {
			v.failf(field+".class", "required")
		} else if _, err := core.ParseFaultClass(ve.Class); err != nil {
			v.failf(field+".class", "%v", err)
		}
		if ve.Action != "" {
			if _, err := core.ParseMaintenanceAction(ve.Action); err != nil {
				v.failf(field+".action", "%v", err)
			}
		}
		if err := CheckClassifier(ve.Classifier); err != nil {
			v.failf(field+".classifier", "%v (empty scopes all)", err)
		}
	}
}

// jobRefOf converts a job FRU string "job[das/job@3]" into the "das/job"
// reference the topology info indexes.
func jobRefOf(fruStr string) string {
	s := strings.TrimPrefix(fruStr, "job[")
	s = strings.TrimSuffix(s, "]")
	if at := strings.LastIndex(s, "@"); at >= 0 {
		s = s[:at]
	}
	return s
}

// sortedKeys lists a map's keys in order, for error messages.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
