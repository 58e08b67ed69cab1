package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"decos/internal/maintenance"
	"decos/internal/scenario"
	"decos/internal/trace"
	"decos/internal/warranty"
)

// defaultSeed is the repository's benchmark seed (benchSeed of the root
// package's benchmarks).
const defaultSeed = 20050404

// workers is the campaign worker and ingest client count of every
// workload: the two CPUs of the machine the benchmark was defined on.
const workers = 2

// rounds is the TDMA rounds per vehicle of the E8/E13-shaped fleets.
const rounds = 3000

// recordedDigests are the digests every op must reproduce at defaultSeed
// and full scale. A change that alters one changes an experiment's
// output, which the repository treats as a bug.
var recordedDigests = map[string]string{
	"fleet":      "1ea94f9d39e8b157",
	"warranty":   "0bcb46d9728ea967",
	"ingest":     "882046de982c72cd",
	"montecarlo": "ed2b2bf54adb98d8",
	"resume":     "1a6d584974c4111a",
}

// A workload turns a seed and a size factor into its timed function. The
// same seed yields the same inputs, and every call of the returned
// function repeats the same operation on them.
type workload struct {
	name  string
	setup func(seed uint64, scale float64, tr *tracer) (func() batch, error)
}

var workloads = []workload{
	{"fleet", setupFleet},
	{"warranty", setupWarranty},
	{"ingest", setupIngest},
	{"montecarlo", setupMonteCarlo},
	{"resume", setupResume},
}

// scaled sizes a vehicle count.
func scaled(n int, scale float64) int {
	return int(math.Round(float64(n) * scale))
}

// plan is a fleet as campaigns of one fault kind each (plus one of
// fault-free vehicles), run one after another. A single campaign, as E8
// runs it, draws every vehicle's fault kind from the seed, and kinds
// differ up to eighteenfold in the allocation a vehicle costs: over seeds
// 1-10 a single 200-vehicle campaign's bytes allocated per op spread by
// 10 % (interquartile range over median), 12 % for the traced 150-vehicle
// one. Fixed proportions leave the seed the fault targets, activation
// instants and simulation noise, and cut those spreads to under 4 %.
type plan []scenario.Campaign

// newPlan splits about n vehicles in the E8 proportions: a fifth
// fault-free, the rest by scenario.DefaultMix. Counts are even (largest
// remainder over vehicle pairs, at least one pair), so both campaign
// workers get equal shares of every campaign.
func newPlan(seed uint64, n int, rounds int64) plan {
	pairs := max(1, (n+1)/2)
	free := int(math.Round(0.2 * float64(pairs)))
	kinds, mix := scenario.AllKinds(), scenario.DefaultMix()
	total := 0.0
	for _, k := range kinds {
		total += mix[k]
	}
	counts := make([]int, len(kinds))
	order := make([]int, len(kinds))
	frac := make([]float64, len(kinds))
	left := pairs - free
	for i, k := range kinds {
		q := float64(pairs-free) * mix[k] / total
		counts[i] = int(q)
		frac[i] = q - float64(counts[i])
		order[i] = i
		left -= counts[i]
	}
	sort.SliceStable(order, func(a, b int) bool { return frac[order[a]] > frac[order[b]] })
	for _, i := range order[:left] {
		counts[i]++
	}
	var p plan
	add := func(c scenario.Campaign) {
		c.Rounds, c.Workers, c.Seed = rounds, workers, seed+uint64(len(p))<<32
		p = append(p, c)
	}
	if free > 0 {
		add(scenario.Campaign{Vehicles: 2 * free, FaultFreeShare: 1})
	}
	for i, k := range kinds {
		if counts[i] > 0 {
			add(scenario.Campaign{Vehicles: 2 * counts[i], Mix: map[scenario.FaultKind]float64{k: 1}})
		}
	}
	return p
}

// op renders one pass over the plan as a batch of one op: its counters,
// its digest over every result (and any extra parts), and an error when a
// campaign was cut short.
func (p plan) op(results []*scenario.CampaignResult, d time.Duration, extra ...[]byte) batch {
	b := batch{lat: []time.Duration{d}}
	var parts [][]byte
	for i, res := range results {
		b.units += float64(res.Completed) * float64(p[i].Rounds)
		b.vehicles += res.Completed
		b.incidents += res.DECOS.Total
		if err := complete(res, p[i].Vehicles); err != nil && b.err == nil {
			b.err = err
		}
		parts = append(parts, canonical(res))
	}
	b.digest = digest(append(parts, extra...)...)
	return b
}

func complete(res *scenario.CampaignResult, vehicles int) error {
	if res.Partial || res.Completed != vehicles {
		return fmt.Errorf("campaign completed %d of %d vehicles (partial=%v)", res.Completed, vehicles, res.Partial)
	}
	return nil
}

// timed runs f as one op under a span and returns its wall time.
func timed(tr *tracer, name string, f func()) time.Duration {
	end := tr.begin(name)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	end()
	return d
}

func setupFleet(seed uint64, scale float64, tr *tracer) (func() batch, error) {
	p := newPlan(seed, scaled(200, scale), rounds)
	return func() batch {
		results := make([]*scenario.CampaignResult, len(p))
		d := timed(tr, "scenario.run", func() {
			for i, c := range p {
				results[i] = c.Run()
			}
		})
		b := p.op(results, d)
		if b.err == nil {
			b.err = e8Shape(results)
		}
		return b
	}, nil
}

// e8Shape is the paper's headline claim as an oracle: over the fleet, the
// DECOS no-fault-found ratio is below the OBD baseline's, or zero.
func e8Shape(results []*scenario.CampaignResult) error {
	var decos, obd maintenance.Report
	for _, r := range results {
		decos.NFFRemovals += r.DECOS.NFFRemovals
		decos.TotalRemovals += r.DECOS.TotalRemovals
		obd.NFFRemovals += r.OBD.NFFRemovals
		obd.TotalRemovals += r.OBD.TotalRemovals
	}
	if d, o := decos.NFFRatio(), obd.NFFRatio(); d != 0 && d >= o {
		return fmt.Errorf("E8 shape: DECOS NFF ratio %.4f not below OBD %.4f", d, o)
	}
	return nil
}

func setupWarranty(seed uint64, scale float64, tr *tracer) (func() batch, error) {
	p := newPlan(seed, scaled(150, scale), rounds)
	return func() batch {
		var events, corrupt, size atomic.Int64
		var ingestErr atomic.Pointer[error]
		results := make([]*scenario.CampaignResult, len(p))
		sums := make([]*warranty.Summary, len(p))
		t0 := time.Now()
		for i, c := range p {
			col := warranty.NewCollector(0)
			end := tr.begin("scenario.run")
			results[i] = c.RunTraced(func(v int, ndjson []byte) {
				end := tr.begin("warranty.ingest")
				n, bad, err := col.IngestStream(bytes.NewReader(ndjson), 0)
				end()
				if err != nil {
					ingestErr.CompareAndSwap(nil, &err)
				}
				events.Add(int64(n))
				corrupt.Add(int64(bad))
				size.Add(int64(len(ndjson)))
			})
			end()
			end = tr.begin("warranty.summary")
			sums[i] = col.Summary(0)
			end()
		}
		d := time.Since(t0)
		var rendered [][]byte
		for _, s := range sums {
			rendered = append(rendered, mustJSON(s))
		}
		b := p.op(results, d, rendered...)
		b.events, b.corrupt, b.traceBytes = events.Load(), corrupt.Load(), size.Load()
		if e := ingestErr.Load(); e != nil && b.err == nil {
			b.err = fmt.Errorf("ingest: %w", *e)
		}
		for i, s := range sums {
			if err := e13Agree(s, results[i], p[i].Vehicles); err != nil && b.err == nil {
				b.err = fmt.Errorf("campaign %d: %w", i, err)
			}
		}
		return b
	}, nil
}

// e13Agree is E13's claim as an oracle: the summary of the ingested
// traces reproduces the in-process audit exactly. A summary has no arm for
// an advisor that never advised, which must then agree with a zero arm.
func e13Agree(s *warranty.Summary, res *scenario.CampaignResult, vehicles int) error {
	arm := func(name string) *warranty.Arm {
		if a := s.Arms[name]; a != nil {
			return a
		}
		return &warranty.Arm{}
	}
	decos, obd := arm("decos"), arm("obd")
	checks := []struct {
		name      string
		got, want float64
	}{
		{"vehicles", float64(s.Vehicles), float64(vehicles)},
		{"corrupt lines", float64(s.CorruptLines), 0},
		{"malformed events", float64(s.Malformed), 0},
		{"decos NFF ratio", decos.NFFRatio, res.DECOS.NFFRatio()},
		{"obd NFF ratio", obd.NFFRatio, res.OBD.NFFRatio()},
		{"decos cost", decos.Cost, res.DECOS.Cost},
		{"obd cost", obd.Cost, res.OBD.Cost},
		{"decos missed", float64(decos.Missed), float64(res.DECOS.Missed)},
		{"decos false alarms", float64(decos.FalseAlarms), float64(res.DECOSFalseAlarms)},
		{"obd false alarms", float64(obd.FalseAlarms), float64(res.OBDFalseAlarms)},
		{"pareto top 20 %", s.Fleet.Pareto20, res.Fleet.Pareto(0.2)},
		{"fleet incidents", float64(s.Fleet.Incidents), float64(res.Fleet.Incidents())},
	}
	for _, c := range checks {
		if c.got != c.want {
			return fmt.Errorf("E13: %s is %v in the summary, %v in the audit", c.name, c.got, c.want)
		}
	}
	return nil
}

// batchBytes is the size at which an ingest request is sent: the default
// MaxBatchBytes of the cluster uplink (cluster.ClientOptions), which
// appends whole vehicle traces to a buffer and posts it once it reaches
// this size.
const batchBytes = 256 << 10

// upload is one ingest request body: whole vehicle traces in the binary
// encoding.
type upload struct {
	blob             []byte
	vehicles, events int
}

// setupIngest prepares the uploads and the summary every pass must end
// with. No simulation runs after setup.
func setupIngest(seed uint64, scale float64, tr *tracer) (func() batch, error) {
	ups, refBody, err := recordIngest(seed, scaled(200, scale))
	if err != nil {
		return nil, err
	}
	return func() batch { return ingestPass(ups, refBody, tr) }, nil
}

// recordIngest records the plan's traced campaigns and packs the vehicle
// traces, in vehicle order, into binary uploads of at least batchBytes
// (the last one less), as the cluster uplink does. Vehicles are numbered
// across campaigns so they stay distinct in one collector. Each campaign's
// traces must reproduce its in-process audit; the summary of all uploads,
// as the server renders it, is what every pass must end with.
func recordIngest(seed uint64, n int) ([]upload, []byte, error) {
	header := len(trace.AppendHeader(nil))
	var ups []upload
	cur := upload{blob: trace.AppendHeader(nil)}
	vehicles := 0
	for i, c := range newPlan(seed, n, rounds) {
		traces := make([]upload, c.Vehicles)
		errs := make([]error, c.Vehicles)
		first := vehicles
		res := c.RunTraced(func(v int, ndjson []byte) {
			traces[v-1], errs[v-1] = encodeVehicle(ndjson, first+v)
		})
		vehicles += c.Vehicles
		if err := complete(res, c.Vehicles); err != nil {
			return nil, nil, err
		}
		if err := errors.Join(errs...); err != nil {
			return nil, nil, fmt.Errorf("campaign %d: %w", i, err)
		}
		check := warranty.NewCollector(0)
		for _, t := range traces {
			if _, _, err := check.IngestStream(bytes.NewReader(t.blob), 0); err != nil {
				return nil, nil, fmt.Errorf("campaign %d: ingest: %w", i, err)
			}
			cur.blob = append(cur.blob, t.blob[header:]...)
			cur.vehicles++
			cur.events += t.events
			if len(cur.blob) >= batchBytes {
				ups = append(ups, cur)
				cur = upload{blob: trace.AppendHeader(nil)}
			}
		}
		if err := e13Agree(check.Summary(0), res, c.Vehicles); err != nil {
			return nil, nil, fmt.Errorf("campaign %d: %w", i, err)
		}
	}
	if cur.vehicles > 0 {
		ups = append(ups, cur)
	}
	ref := warranty.NewCollector(0)
	for _, u := range ups {
		if _, _, err := ref.IngestStream(bytes.NewReader(u.blob), 0); err != nil {
			return nil, nil, fmt.Errorf("ingest: %w", err)
		}
	}
	refBody, err := getSummary(warranty.NewServer(ref, warranty.ServerOptions{}))
	return ups, refBody, err
}

// encodeVehicle re-encodes one vehicle's NDJSON trace as a binary stream,
// as the given vehicle number.
func encodeVehicle(ndjson []byte, vehicle int) (upload, error) {
	u := upload{blob: trace.AppendHeader(nil), vehicles: 1}
	rd, _ := trace.OpenReader(bytes.NewReader(ndjson))
	var encErr error
	err := rd.ReadAll(func(e trace.Event) {
		e.Vehicle = vehicle
		blob, err := trace.AppendEvent(u.blob, &e)
		if err != nil && encErr == nil {
			encErr = err
		}
		u.blob, u.events = blob, u.events+1
	})
	if err == nil {
		err = encErr
	}
	if err == nil && rd.Corrupt() != 0 {
		err = fmt.Errorf("vehicle %d: %d corrupt records", vehicle, rd.Corrupt())
	}
	return u, err
}

func getSummary(srv *warranty.Server) ([]byte, error) {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/fleet/summary", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/fleet/summary: %d", rec.Code)
	}
	return rec.Body.Bytes(), nil
}

// summaryEvery is how many uploads client 0 makes per summary read: about
// three reads per pass of the full fleet.
const summaryEvery = 7

// ingestPass POSTs every upload to a fresh server from the workload's
// clients (client k takes uploads k, k+workers, ...), client 0 reading the
// fleet summary after every summaryEvery uploads, then checks the final
// summary against the reference byte for byte.
func ingestPass(ups []upload, refBody []byte, tr *tracer) batch {
	srv := warranty.NewServer(warranty.NewCollector(0), warranty.ServerOptions{})
	type client struct {
		lat                []time.Duration
		rejected, vehicles int
		events, size       int64
		err                error // the first failed request
	}
	clients := make([]client, workers)
	var wg sync.WaitGroup
	for k := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := &clients[k]
			fail := func(err error) {
				if cl.err == nil {
					cl.err = err
				}
			}
			n := 0
			for i := k; i < len(ups); i += workers {
				u := ups[i]
				req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(u.blob))
				req.Header.Set("Content-Type", trace.ContentTypeBinary)
				rec := httptest.NewRecorder()
				cl.lat = append(cl.lat, timed(tr, "warranty.ingest", func() { srv.ServeHTTP(rec, req) }))
				var ack struct{ Ingested, Corrupt int }
				switch {
				case rec.Code != http.StatusOK:
					cl.rejected++
					fail(fmt.Errorf("POST upload %d: %d", i, rec.Code))
				case json.Unmarshal(rec.Body.Bytes(), &ack) != nil || ack.Ingested != u.events || ack.Corrupt != 0:
					fail(fmt.Errorf("POST upload %d: acknowledged %q, want %d events", i, rec.Body.String(), u.events))
				}
				cl.vehicles += u.vehicles
				cl.events += int64(u.events)
				cl.size += int64(len(u.blob))
				if n++; k != 0 || n%summaryEvery != 0 {
					continue
				}
				rec = httptest.NewRecorder()
				get := httptest.NewRequest(http.MethodGet, "/v1/fleet/summary", nil)
				cl.lat = append(cl.lat, timed(tr, "warranty.summary", func() { srv.ServeHTTP(rec, get) }))
				if rec.Code != http.StatusOK {
					cl.rejected++
					fail(fmt.Errorf("GET summary: %d", rec.Code))
				}
			}
		}()
	}
	wg.Wait()
	// A failed request leaves the final summary short as well, so it fails
	// the whole pass.
	b := batch{}
	for _, cl := range clients {
		b.units += float64(cl.vehicles) * rounds
		b.lat = append(b.lat, cl.lat...)
		b.rejected += cl.rejected
		b.events += cl.events
		b.traceBytes += cl.size
		if b.err == nil {
			b.err = cl.err
		}
	}
	final, err := getSummary(srv)
	switch {
	case b.err != nil:
	case err != nil:
		b.err = err
	case !bytes.Equal(final, refBody):
		b.err = errors.New("ingest: final summary differs from the reference")
	}
	b.digest = digest(final)
	return b
}

// replicates is the Monte Carlo replicate count per campaign.
const replicates = 10

func setupMonteCarlo(seed uint64, scale float64, tr *tracer) (func() batch, error) {
	p := newPlan(seed, scaled(40, scale), 300)
	for i := range p {
		p[i].Classifier = "bayes"
	}
	return func() batch {
		results := make([]*scenario.MonteCarloResult, len(p))
		d := timed(tr, "scenario.run", func() {
			for i, c := range p {
				results[i] = c.MonteCarlo(context.Background(), replicates)
			}
		})
		b := batch{lat: []time.Duration{d}}
		var parts [][]byte
		for i, mc := range results {
			if err := allReplicates(mc); err != nil && b.err == nil {
				b.err = err
			}
			b.units += float64(mc.Completed*p[i].Vehicles) * float64(p[i].Rounds)
			b.vehicles += mc.Completed * p[i].Vehicles
			parts = append(parts, mustJSON(mc))
		}
		b.digest = digest(parts...)
		return b
	}, nil
}

func allReplicates(mc *scenario.MonteCarloResult) error {
	if mc.Partial || mc.Completed != replicates || mc.Replicates != replicates {
		return fmt.Errorf("Monte Carlo completed %d of %d replicates", mc.Completed, mc.Replicates)
	}
	return nil
}

// chunkRounds is the resume workload's checkpoint interval.
const chunkRounds = 100

// setupResume computes the unchunked reference results; every op reruns
// the campaigns with a checkpoint and a restore into a fresh engine every
// chunkRounds rounds and must reproduce them.
func setupResume(seed uint64, scale float64, tr *tracer) (func() batch, error) {
	p := newPlan(seed, scaled(80, scale), rounds)
	want := make([][]byte, len(p))
	for i, c := range p {
		ref := c.Run()
		if err := complete(ref, c.Vehicles); err != nil {
			return nil, err
		}
		want[i] = canonical(ref)
		p[i].ChunkRounds = chunkRounds
	}
	return func() batch {
		results := make([]*scenario.CampaignResult, len(p))
		d := timed(tr, "scenario.run", func() {
			for i, c := range p {
				results[i] = c.Run()
			}
		})
		b := p.op(results, d)
		for i, res := range results {
			if b.err == nil && !bytes.Equal(canonical(res), want[i]) {
				b.err = fmt.Errorf("resume: campaign %d differs from its unchunked run", i)
			}
		}
		return b
	}, nil
}

// armView is the value content of a maintenance.Report: every audited
// outcome in ledger order plus the totals.
type armView struct {
	Outcomes []string
	Total, CorrectClass, CorrectActions,
	NFFRemovals, TotalRemovals, Missed int
	Cost float64
}

func viewArm(r *maintenance.Report) armView {
	v := armView{
		Total: r.Total, CorrectClass: r.CorrectClass, CorrectActions: r.CorrectActions,
		NFFRemovals: r.NFFRemovals, TotalRemovals: r.TotalRemovals, Missed: r.Missed, Cost: r.Cost,
	}
	for _, o := range r.Outcomes {
		v.Outcomes = append(v.Outcomes, fmt.Sprintf("%v>%v:%v %t%t%t%t %g",
			o.Truth, o.Diagnosed, o.Action, o.CorrectClass, o.CorrectAction, o.NFF, o.Missed, o.Cost))
	}
	return v
}

// canonical renders a campaign result deterministically.
func canonical(res *scenario.CampaignResult) []byte {
	return mustJSON(struct {
		DECOS, OBD                       armView
		DECOSFalseAlarms, OBDFalseAlarms int
		FaultFree, Completed             int
		Partial                          bool
		Fleet                            any
	}{
		viewArm(res.DECOS), viewArm(res.OBD),
		res.DECOSFalseAlarms, res.OBDFalseAlarms,
		res.FaultFreeCount, res.Completed, res.Partial,
		res.Fleet.Snapshot(),
	})
}

// mustJSON marshals a result. Only a NaN or an infinity can fail; it
// renders as the error text, which then fails the digest check.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		return []byte("unencodable: " + err.Error())
	}
	return b
}

func digest(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
