package sched

import (
	"memsched/internal/memctrl"
)

// This file implements a deadline-aware scheduler for latency-critical (LC)
// vs best-effort (BE) serving classes, in the spirit of Usui et al.'s DASH
// ("Deadline-Aware Memory Scheduler for Heterogeneous Systems"): agents with
// deadlines are scheduled lazily — as long as an LC request has slack left it
// competes on row-buffer locality like everyone else, and only when its slack
// is nearly exhausted does it jump the queue. That is the whole trick: a
// strict LC-first scheme wastes BE row hits servicing LC requests that were
// in no danger, while dash spends priority exactly where the tail SLO is
// earned, at the requests about to blow their deadline.
//
// Mechanism, per candidate:
//
//   - every LC read carries an implicit deadline Arrive + dashSlack;
//   - an LC candidate whose remaining slack is <= dashUrgent is *urgent*:
//     urgent candidates beat everything, oldest deadline first — even a
//     row-buffer hit loses to a read about to miss its SLO;
//   - everyone else is ranked row-buffer hit first (bandwidth preservation),
//     then LC before BE at equal hit status (a mild head start that costs no
//     locality), then age.
//
// BE cores therefore "fill the rest": they own the bandwidth whenever no LC
// request is at risk, which is what maximizes BE throughput at a fixed LC
// tail-latency SLO (the slo-pack battleground's score).
const (
	// dashSlack is the implicit LC read deadline in cycles past admission,
	// sized a little above the loaded average read latency (~400 cycles on
	// the Table 1 machine) so the urgency boost fires on the tail, not on
	// every request.
	dashSlack int64 = 500
	// dashUrgent is the remaining-slack threshold at which an LC request
	// becomes urgent. Requests younger than dashSlack-dashUrgent cycles
	// never preempt a row hit.
	dashUrgent int64 = 300
)

// dash implements the dash policy. It is stateless — urgency is a pure
// function of ctx.Now, ctx.LC and each candidate's Arrive — so it is
// deterministic-by-construction under cycle skipping for the same reason
// bliss and cads are: everything happens inside PickIndexed, and picks occur
// at identical cycles with identical candidate sets in every run mode. With no LC cores assigned (ctx.LC all false, the
// default) dash degenerates to hf-rf exactly.
type dash struct{}

func (dash) Name() string { return "dash" }

func (p dash) Pick(cands []memctrl.Candidate, ctx *memctrl.Context) int {
	v := memctrl.ViewOf(cands)
	return p.PickIndexed(&v, ctx)
}

func (dash) PickIndexed(view *memctrl.CandidateView, ctx *memctrl.Context) int {
	// lcOf is nil-safe so the policy can be driven by hand-built contexts in
	// tests; the controller always supplies a full LC vector.
	lcOf := func(core int) bool { return ctx.LC != nil && ctx.LC[core] }
	urgent := func(c *memctrl.Candidate) bool {
		return lcOf(c.Req.Core) && c.Req.Arrive+dashSlack-ctx.Now <= dashUrgent
	}
	return pickBest(view, ctx, func(a, b *memctrl.Candidate) int {
		ua, ub := urgent(a), urgent(b)
		if c := cmpBool(ua, ub); c != 0 {
			return c
		}
		if ua { // both urgent: earliest deadline (= earliest arrival) first
			return cmpAge(a, b)
		}
		if c := cmpBool(a.RowHit, b.RowHit); c != 0 {
			return c
		}
		if c := cmpBool(lcOf(a.Req.Core), lcOf(b.Req.Core)); c != 0 {
			return c
		}
		return cmpAge(a, b)
	})
}
