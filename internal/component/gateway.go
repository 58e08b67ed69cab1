package component

import "decos/internal/vnet"

// GatewayJob implements the hidden-gateway high-level service of the DECOS
// architecture (paper Section II-B): it interconnects two DASs by
// republishing selected channels from one virtual network onto another,
// invisible to the jobs on either side ("hidden"). The gateway enforces a
// rate bound per forwarded channel, so a misbehaving source DAS cannot
// consume the destination DAS's bandwidth — the inter-DAS analogue of the
// encapsulation service.
type GatewayJob struct {
	// Routes maps an input channel (on the source DAS's network) to the
	// output channel the gateway republishes on (on the destination
	// DAS's network). The gateway's component must subscribe to every
	// input and produce every output.
	Routes []GatewayRoute

	// Forwarded counts republished messages per route index.
	Forwarded []int
	// RateLimited counts messages dropped by the per-round rate bound.
	RateLimited []int
}

// GatewayRoute is one unidirectional channel mapping.
type GatewayRoute struct {
	In, Out vnet.ChannelID
	// MaxPerRound bounds forwarded messages per round (0 = one state
	// value per round, the TT default).
	MaxPerRound int
	// Transform optionally rewrites the payload (unit conversion,
	// sub-sampling); nil forwards verbatim.
	Transform func(payload []byte) []byte
}

// Reset implements Resetter.
func (g *GatewayJob) Reset() {
	clear(g.Forwarded)
	clear(g.RateLimited)
}

// Step implements Job.
func (g *GatewayJob) Step(ctx *Context) {
	if g.Forwarded == nil {
		g.Forwarded = make([]int, len(g.Routes))
		g.RateLimited = make([]int, len(g.Routes))
	}
	for i, r := range g.Routes {
		limit := r.MaxPerRound
		if limit <= 0 {
			limit = 1
		}
		sent := 0
		for sent < limit {
			m, ok := ctx.Receive(r.In)
			if !ok {
				break
			}
			payload := m.Payload
			if r.Transform != nil {
				payload = r.Transform(payload)
			}
			if ctx.Send(r.Out, payload) {
				g.Forwarded[i]++
				sent++
			}
		}
		// Anything left beyond the bound this round is dropped: the
		// gateway trades completeness for guaranteed destination-side
		// bandwidth (quality-of-service improvement, Section II-B).
		for {
			if _, ok := ctx.Receive(r.In); !ok {
				break
			}
			g.RateLimited[i]++
		}
	}
}
