// Package diagnosis implements the DECOS integrated diagnostic services
// (paper Section II-D and V): local symptom detection against the LIF
// specifications at every component, dissemination of symptom messages over
// a dedicated virtual diagnostic network, and the encapsulated diagnostic
// DAS that evaluates Out-of-Norm Assertions (ONAs) on the distributed
// state, maintains α-counts and per-FRU trust levels, classifies
// experienced failures into the maintenance-oriented fault model's classes
// and derives the maintenance action of the paper's Fig. 11.
package diagnosis

import (
	"cmp"
	"fmt"
	"slices"

	"decos/internal/component"
	"decos/internal/core"
	"decos/internal/tt"
	"decos/internal/vnet"
)

// FRUIndex is a compact identifier for a FRU inside symptom messages. The
// registry mapping indices to FRUs is static configuration data shared by
// all diagnostic participants.
type FRUIndex uint16

// NoFRU marks "no subject" (never a valid index).
const NoFRU FRUIndex = 0xffff

// ChannelMeta is the static per-channel knowledge of the diagnostic
// configuration: the LIF spec and the producing FRUs.
type ChannelMeta struct {
	Spec component.ChannelSpec
	// ProducerJob is the software FRU producing the channel.
	ProducerJob FRUIndex
	// ProducerComp is the hardware FRU hosting the producer.
	ProducerComp FRUIndex
	// DAS names the owning subsystem.
	DAS string
}

// Registry is the static diagnostic configuration of one cluster: FRU
// table, channel metadata and component geometry. It is derived
// deterministically from the cluster configuration and immutable after
// construction.
type Registry struct {
	frus    []core.FRU
	index   map[core.FRU]FRUIndex
	channel map[vnet.ChannelID]ChannelMeta

	// Per-FRU tables indexed by FRUIndex. The hardware FRUs lead the FRU
	// table in node order, so compPos, one entry per component, is
	// indexed by FRUIndex too.
	hostOf  []FRUIndex   // hosting hardware FRU (itself for hardware)
	dasOf   []string     // DAS name ("" for hardware)
	jobsOn  [][]FRUIndex // software FRUs hosted on a hardware FRU
	compPos [][2]float64

	// Index lists queried on every assessment epoch; callers must not
	// modify the returned slices.
	hw []FRUIndex
	sw []FRUIndex
}

// NewRegistry builds the registry for a cluster: one hardware FRU per
// component (in node order), then one software FRU per job (in DAS/job
// order).
func NewRegistry(cl *component.Cluster) *Registry {
	r := &Registry{
		index:   make(map[core.FRU]FRUIndex),
		channel: make(map[vnet.ChannelID]ChannelMeta),
	}
	add := func(f core.FRU, host FRUIndex, das string) FRUIndex {
		idx := FRUIndex(len(r.frus))
		r.frus = append(r.frus, f)
		r.index[f] = idx
		r.hostOf = append(r.hostOf, host)
		r.dasOf = append(r.dasOf, das)
		return idx
	}
	for _, c := range cl.Components() {
		r.hw = append(r.hw, add(core.HardwareFRU(int(c.ID)), FRUIndex(len(r.frus)), ""))
		r.compPos = append(r.compPos, [2]float64{c.X, c.Y})
	}
	for _, d := range cl.DASs() {
		for _, j := range d.Jobs {
			host := r.index[core.HardwareFRU(int(j.Comp.ID))]
			r.sw = append(r.sw, add(core.SoftwareFRU(int(j.Comp.ID), d.Name+"/"+j.Name), host, d.Name))
		}
	}
	for ch, spec := range cl.Specs() {
		j := cl.Producer(ch)
		if j == nil {
			continue
		}
		jobFRU := core.SoftwareFRU(int(j.Comp.ID), j.DAS.Name+"/"+j.Name)
		r.channel[ch] = ChannelMeta{
			Spec:         spec,
			ProducerJob:  r.index[jobFRU],
			ProducerComp: r.index[core.HardwareFRU(int(j.Comp.ID))],
			DAS:          j.DAS.Name,
		}
	}
	r.jobsOn = make([][]FRUIndex, len(r.frus))
	for _, sw := range r.sw {
		r.jobsOn[r.hostOf[sw]] = append(r.jobsOn[r.hostOf[sw]], sw)
	}
	return r
}

// Len returns the number of registered FRUs.
func (r *Registry) Len() int { return len(r.frus) }

// FRU returns the FRU at the given index.
func (r *Registry) FRU(i FRUIndex) core.FRU {
	if int(i) >= len(r.frus) {
		panic(fmt.Sprintf("diagnosis: FRU index %d out of range", i))
	}
	return r.frus[i]
}

// Index returns the index of a FRU; ok=false if unknown.
func (r *Registry) Index(f core.FRU) (FRUIndex, bool) {
	i, ok := r.index[f]
	return i, ok
}

// HardwareIndex returns the hardware FRU index of a component node: a
// search of the hardware FRUs, which lead the table in node order.
func (r *Registry) HardwareIndex(n tt.NodeID) (FRUIndex, bool) {
	i, ok := slices.BinarySearchFunc(r.frus[:len(r.hw)], int(n), func(f core.FRU, n int) int {
		return cmp.Compare(f.Component, n)
	})
	return FRUIndex(i), ok
}

// HostOf returns the hardware FRU hosting a software FRU (or the argument
// itself if it already is hardware).
func (r *Registry) HostOf(i FRUIndex) FRUIndex { return r.hostOf[i] }

// DASOf returns the DAS name of a software FRU ("" for hardware FRUs).
func (r *Registry) DASOf(i FRUIndex) string { return r.dasOf[i] }

// IsHardware reports whether index i names a component.
func (r *Registry) IsHardware(i FRUIndex) bool {
	return int(i) < len(r.frus) && r.frus[i].IsHardware()
}

// JobsOn returns the software FRU indices hosted on hardware FRU hw. The
// returned slice is shared registry state; callers must not modify it.
func (r *Registry) JobsOn(hw FRUIndex) []FRUIndex { return r.jobsOn[hw] }

// Distance returns the Euclidean distance between two hardware FRUs (+Inf
// when either is unknown).
func (r *Registry) Distance(a, b FRUIndex) float64 {
	if int(a) >= len(r.compPos) || int(b) >= len(r.compPos) {
		return 1e308
	}
	pa, pb := r.compPos[a], r.compPos[b]
	dx, dy := pa[0]-pb[0], pa[1]-pb[1]
	d2 := dx*dx + dy*dy
	// Cheap sqrt via Newton (avoid importing math for one call site).
	if d2 == 0 {
		return 0
	}
	x := d2
	for i := 0; i < 32; i++ {
		x = 0.5 * (x + d2/x)
	}
	return x
}

// Channel returns the metadata of a channel; ok=false if the channel has no
// registered spec.
func (r *Registry) Channel(ch vnet.ChannelID) (ChannelMeta, bool) {
	m, ok := r.channel[ch]
	return m, ok
}

// HardwareFRUs returns all hardware FRU indices in node order. The returned
// slice is shared registry state; callers must not modify it.
func (r *Registry) HardwareFRUs() []FRUIndex { return r.hw }

// SoftwareFRUs returns all software FRU indices. The returned slice is
// shared registry state; callers must not modify it.
func (r *Registry) SoftwareFRUs() []FRUIndex { return r.sw }
