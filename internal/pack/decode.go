package pack

import (
	"fmt"
	"math"
)

// decoder carries the first decode error across the schema walk; every
// accessor is a no-op once an error is latched, so call sites read
// straight-line.
type decoder struct {
	source string
	err    error
}

func (d *decoder) fail(line int, field, format string, args ...any) {
	if d.err == nil {
		d.err = errf(d.source, line, field, format, args...)
	}
}

// objDec decodes one object node under a field path, tracking which keys
// the schema consumed so leftovers are rejected as unknown fields.
type objDec struct {
	d    *decoder
	obj  *object
	path string
	line int
	seen map[string]bool
}

func (d *decoder) object(v *value, path string) *objDec {
	obj, ok := v.raw.(*object)
	if !ok {
		d.fail(v.line, path, "expected an object, got %s", typeName(v))
		return &objDec{d: d, obj: newObject(), path: path, line: v.line, seen: map[string]bool{}}
	}
	return &objDec{d: d, obj: obj, path: path, line: v.line, seen: map[string]bool{}}
}

func (o *objDec) field(key string) string {
	if o.path == "" {
		return key
	}
	return o.path + "." + key
}

// finish rejects keys the schema never consumed.
func (o *objDec) finish() {
	for _, k := range o.obj.keys {
		if !o.seen[k] {
			v := o.obj.vals[k]
			o.d.fail(v.line, o.field(k), "unknown field (known fields: %s)", sortedKeys(o.seen))
			return
		}
	}
}

func (o *objDec) lookup(key string) (*value, bool) {
	o.seen[key] = true
	return o.obj.get(key)
}

// has marks a key consumed and reports presence without decoding it.
func (o *objDec) str(key, def string) string {
	v, ok := o.lookup(key)
	if !ok {
		return def
	}
	s, isStr := v.raw.(string)
	if !isStr {
		o.d.fail(v.line, o.field(key), "expected a string, got %s", typeName(v))
		return def
	}
	return s
}

func (o *objDec) boolean(key string, def bool) bool {
	v, ok := o.lookup(key)
	if !ok {
		return def
	}
	b, isBool := v.raw.(bool)
	if !isBool {
		o.d.fail(v.line, o.field(key), "expected a bool, got %s", typeName(v))
		return def
	}
	return b
}

func (o *objDec) int64(key string, def int64) int64 {
	v, ok := o.lookup(key)
	if !ok {
		return def
	}
	i, isInt := v.raw.(int64)
	if !isInt {
		o.d.fail(v.line, o.field(key), "expected an integer, got %s", typeName(v))
		return def
	}
	return i
}

func (o *objDec) integer(key string, def int) int {
	return int(o.int64(key, int64(def)))
}

func (o *objDec) uint64(key string, def uint64) uint64 {
	v, ok := o.lookup(key)
	if !ok {
		return def
	}
	i, isInt := v.raw.(int64)
	if !isInt {
		o.d.fail(v.line, o.field(key), "expected an integer, got %s", typeName(v))
		return def
	}
	if i < 0 {
		o.d.fail(v.line, o.field(key), "must be non-negative, got %d", i)
		return def
	}
	return uint64(i)
}

// float accepts both integer and float literals (a pack author writing
// `rate = 1` should not be told 1 is not a number).
func (o *objDec) float(key string, def float64) float64 {
	v, ok := o.lookup(key)
	if !ok {
		return def
	}
	switch n := v.raw.(type) {
	case float64:
		if math.IsNaN(n) || math.IsInf(n, 0) {
			o.d.fail(v.line, o.field(key), "must be finite")
			return def
		}
		return n
	case int64:
		return float64(n)
	}
	o.d.fail(v.line, o.field(key), "expected a number, got %s", typeName(v))
	return def
}

// table returns the nested object decoder, or nil when the key is absent.
func (o *objDec) table(key string) *objDec {
	v, ok := o.lookup(key)
	if !ok {
		return nil
	}
	return o.d.object(v, o.field(key))
}

// tables returns one decoder per element of an array-of-objects key.
func (o *objDec) tables(key string) []*objDec {
	v, ok := o.lookup(key)
	if !ok {
		return nil
	}
	arr, isArr := v.raw.([]*value)
	if !isArr {
		o.d.fail(v.line, o.field(key), "expected an array of objects, got %s", typeName(v))
		return nil
	}
	out := make([]*objDec, 0, len(arr))
	for i, elem := range arr {
		out = append(out, o.d.object(elem, fmt.Sprintf("%s[%d]", o.field(key), i)))
	}
	return out
}

// intList decodes an array of integers.
func (o *objDec) intList(key string) []int {
	v, ok := o.lookup(key)
	if !ok {
		return nil
	}
	arr, isArr := v.raw.([]*value)
	if !isArr {
		o.d.fail(v.line, o.field(key), "expected an array of integers, got %s", typeName(v))
		return nil
	}
	out := make([]int, 0, len(arr))
	for i, elem := range arr {
		n, isInt := elem.raw.(int64)
		if !isInt {
			o.d.fail(elem.line, fmt.Sprintf("%s[%d]", o.field(key), i), "expected an integer, got %s", typeName(elem))
			return nil
		}
		out = append(out, int(n))
	}
	return out
}

// floatMap decodes an object of string → number (campaign mixes).
func (o *objDec) floatMap(key string) map[string]float64 {
	v, ok := o.lookup(key)
	if !ok {
		return nil
	}
	obj, isObj := v.raw.(*object)
	if !isObj {
		o.d.fail(v.line, o.field(key), "expected an object, got %s", typeName(v))
		return nil
	}
	out := make(map[string]float64, len(obj.keys))
	for _, k := range obj.keys {
		elem := obj.vals[k]
		switch n := elem.raw.(type) {
		case float64:
			out[k] = n
		case int64:
			out[k] = float64(n)
		default:
			o.d.fail(elem.line, o.field(key)+"."+k, "expected a number, got %s", typeName(elem))
			return nil
		}
	}
	return out
}

// decodeManifest walks the document tree into a Manifest. Structural
// errors (wrong types, unknown fields) surface here; semantic rules live
// in validate.go.
func decodeManifest(root *value, source string) (*Manifest, error) {
	d := &decoder{source: source}
	doc := d.object(root, "")

	m := &Manifest{Source: source}
	m.Pack = doc.integer("pack", 0)
	m.Name = doc.str("name", "")
	m.Description = doc.str("description", "")
	m.Seed = doc.uint64("seed", 0)
	m.Rounds = doc.int64("rounds", 0)
	m.Classifier = doc.str("classifier", "")

	if topo := doc.table("topology"); topo != nil {
		decodeTopology(topo, &m.Topology)
	}
	if diag := doc.table("diagnosis"); diag != nil {
		decodeDiagnosis(diag, &m.Diagnosis)
	}
	for _, fd := range doc.tables("faults") {
		m.Faults = append(m.Faults, decodeFault(fd))
	}
	for _, ed := range doc.tables("environment") {
		m.Environment = append(m.Environment, decodeEnv(ed))
	}
	if cd := doc.table("campaign"); cd != nil {
		m.Campaign = decodeCampaign(cd)
	}
	m.Expect = Expect{MaxFalseAlarms: -1, MaxNFFRatio: -1, MinScore: 1}
	if ed := doc.table("expect"); ed != nil {
		decodeExpect(ed, &m.Expect)
	}
	doc.finish()
	if d.err != nil {
		return nil, d.err
	}
	return m, nil
}

func decodeTopology(o *objDec, t *Topology) {
	t.Kind = o.str("kind", "")
	t.Nodes = o.integer("nodes", 0)
	t.SlotLenUS = o.int64("slot_len_us", 0)
	t.SlotBytes = o.integer("slot_bytes", 0)
	t.DiagNode = o.integer("diag_node", -1)
	t.Clocks = DefaultClocks()
	if cd := o.table("clocks"); cd != nil {
		t.Clocks.MaxDriftPPM = cd.float("max_drift_ppm", t.Clocks.MaxDriftPPM)
		t.Clocks.JitterUS = cd.float("jitter_us", t.Clocks.JitterUS)
		t.Clocks.PrecisionUS = cd.float("precision_us", t.Clocks.PrecisionUS)
		t.Clocks.Tolerated = cd.integer("tolerated", t.Clocks.Tolerated)
		cd.finish()
	}
	for _, c := range o.tables("components") {
		t.Components = append(t.Components, ComponentSpec{
			ID:   c.integer("id", -1),
			Name: c.str("name", ""),
			X:    c.float("x", 0),
			Y:    c.float("y", 0),
		})
		c.finish()
	}
	for _, s := range o.tables("signals") {
		t.Signals = append(t.Signals, SignalSpec{
			Name:      s.str("name", ""),
			Amplitude: s.float("amplitude", 0),
			PeriodMS:  s.float("period_ms", 0),
			Offset:    s.float("offset", 0),
		})
		s.finish()
	}
	for _, dd := range o.tables("dass") {
		t.DASs = append(t.DASs, decodeDAS(dd))
	}
	o.finish()
}

func decodeDAS(o *objDec) DASSpec {
	das := DASSpec{
		Name:     o.str("name", ""),
		Critical: o.boolean("critical", false),
	}
	for _, nd := range o.tables("networks") {
		net := NetworkSpec{
			Name: nd.str("name", ""),
			Kind: nd.str("kind", "tt"),
		}
		for _, ep := range nd.tables("endpoints") {
			net.Endpoints = append(net.Endpoints, EndpointSpec{
				Node:       ep.integer("node", -1),
				AllocBytes: ep.integer("alloc_bytes", 0),
				QueueCap:   ep.integer("queue_cap", 0),
			})
			ep.finish()
		}
		nd.finish()
		das.Networks = append(das.Networks, net)
	}
	for _, jd := range o.tables("jobs") {
		das.Jobs = append(das.Jobs, decodeJob(jd))
	}
	o.finish()
	return das
}

func decodeJob(o *objDec) JobSpec {
	j := JobSpec{
		Name:      o.str("name", ""),
		Component: o.integer("component", -1),
		Partition: o.integer("partition", 0),
		Type:      o.str("type", ""),

		Signal:       o.str("signal", ""),
		PhysMin:      o.float("phys_min", -10),
		PhysMax:      o.float("phys_max", 110),
		FrozenWindow: o.integer("frozen_window", 20),

		In:    o.integer("in", 0),
		Gain:  o.float("gain", 1),
		InMin: o.float("in_min", 0),
		InMax: o.float("in_max", 100),

		Out:      o.integer("out", 0),
		Actuator: o.str("actuator", ""),

		MeanPerRound: o.float("mean_per_round", 1),

		Ins:       o.intList("ins"),
		Tolerance: o.float("tolerance", 1),

		Watch: o.integer("watch", 0),
	}
	for _, pd := range o.tables("produce") {
		j.Produce = append(j.Produce, ProduceSpec{
			Network:      pd.str("network", ""),
			Channel:      pd.integer("channel", 0),
			Name:         pd.str("name", ""),
			Min:          pd.float("min", 0),
			Max:          pd.float("max", 100),
			MaxAgeRounds: pd.integer("max_age_rounds", 0),
			StuckRounds:  pd.integer("stuck_rounds", 0),
			Sensor:       pd.boolean("sensor", false),
		})
		pd.finish()
	}
	for _, sd := range o.tables("subscribe") {
		j.Subscribe = append(j.Subscribe, SubscribeSpec{
			Channel:   sd.integer("channel", 0),
			Capacity:  sd.integer("capacity", 0),
			Overwrite: sd.boolean("overwrite", false),
		})
		sd.finish()
	}
	o.finish()
	return j
}

func decodeDiagnosis(o *objDec, s *DiagnosisSpec) {
	s.EpochRounds = o.int64("epoch_rounds", 0)
	s.WindowGranules = o.int64("window_granules", 0)
	s.RetainGranules = o.int64("retain_granules", 0)
	s.ProximityRadius = o.float("proximity_radius", 0)
	s.BurstGranules = o.int64("burst_granules", 0)
	s.MultiBitThreshold = o.float("multi_bit_threshold", 0)
	s.PermanentWindow = o.int64("permanent_window", 0)
	s.PermanentDuty = o.float("permanent_duty", 0)
	s.RiseFactor = o.float("rise_factor", 0)
	s.AlphaK = o.float("alpha_k", 0)
	s.AlphaThreshold = o.float("alpha_threshold", 0)
	s.MinRecurrentGranules = o.integer("min_recurrent_granules", 0)
	s.OverflowMin = o.integer("overflow_min", 0)
	s.JobInternalAssertions = o.boolean("job_internal_assertions", false)
	o.finish()
}

func decodeFault(o *objDec) FaultSpec {
	f := FaultSpec{
		Kind: o.str("kind", ""),

		AtMS:       o.float("at_ms", 0),
		EndMS:      o.float("end_ms", 0),
		DurationMS: o.float("duration_ms", 0),

		Component: o.integer("component", -1),
		Job:       o.str("job", ""),
		Channel:   o.integer("channel", 0),

		Rate:      o.float("rate", 0),
		Value:     o.float("value", 0),
		Threshold: o.float("threshold", 0),
		Omit:      o.boolean("omit", false),

		X:      o.float("x", 0),
		Y:      o.float("y", 0),
		Radius: o.float("radius", 0),
		Bits:   o.integer("bits", 0),

		DriftPPM:        o.float("drift_ppm", 0),
		DriftPerHour:    o.float("drift_per_hour", 0),
		RatePerHour:     o.float("rate_per_hour", 0),
		TauMS:           o.float("tau_ms", 0),
		BaseRatePerHour: o.float("base_rate_per_hour", 0),
		MaxFactor:       o.float("max_factor", 0),

		QueueCap: o.integer("queue_cap", 0),
	}
	o.finish()
	return f
}

func decodeEnv(o *objDec) EnvProfile {
	e := EnvProfile{
		Profile:    o.str("profile", ""),
		FromMS:     o.float("from_ms", 0),
		ToMS:       o.float("to_ms", 0),
		PeriodMS:   o.float("period_ms", 0),
		Intensity:  o.float("intensity", 0.5),
		Components: o.intList("components"),
	}
	o.finish()
	return e
}

func decodeCampaign(o *objDec) *CampaignSpec {
	c := &CampaignSpec{
		Vehicles:         o.integer("vehicles", 0),
		FaultFreeShare:   o.float("fault_free_share", 0.2),
		FaultsPerVehicle: o.integer("faults_per_vehicle", 1),
		Mix:              o.floatMap("mix"),
	}
	o.finish()
	return c
}

func decodeExpect(o *objDec, e *Expect) {
	e.Healthy = o.boolean("healthy", false)
	e.MaxFalseAlarms = o.integer("max_false_alarms", -1)
	e.MinScore = o.float("min_score", 1)
	e.MinScoreOBD = o.float("min_score_obd", 0)
	e.MinScoreBayes = o.float("min_score_bayes", 0)
	e.MinClassAccuracy = o.float("min_class_accuracy", 0)
	e.MaxNFFRatio = o.float("max_nff_ratio", -1)
	e.DECOSBeatsOBD = o.boolean("decos_beats_obd", false)
	for _, vd := range o.tables("verdicts") {
		e.Verdicts = append(e.Verdicts, VerdictExpect{
			FRU:        vd.str("fru", ""),
			Class:      vd.str("class", ""),
			Action:     vd.str("action", ""),
			Classifier: vd.str("classifier", ""),
		})
		vd.finish()
	}
	o.finish()
}
