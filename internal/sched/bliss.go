package sched

import (
	"memsched/internal/memctrl"
)

// This file implements the Blacklisting Memory Scheduler after Subramanian
// et al., "The Blacklisting Memory Scheduler: Achieving High Performance and
// Fairness at Low Cost" (ICCD 2014). BLISS observes that interference-prone
// applications are exactly the ones whose requests get served in long
// consecutive runs, and that fair scheduling does not need per-application
// ranking: it is enough to *blacklist* the current hog for a short while.
//
// Mechanism (application-unaware — no profiles, no priority tables):
//
//   - track the source core of consecutively served requests; when one core
//     is served blissThreshold times in a row, set its blacklist bit;
//   - candidates from non-blacklisted cores beat candidates from blacklisted
//     cores; within each group, row-buffer hits first, then age;
//   - all blacklist bits are cleared every blissClearInterval cycles, so a
//     blacklisted core's penalty is bounded and no request starves.
//
// The hardware cost is one bit plus a tiny streak counter per core — the
// cheap end of the fairness-battleground complexity axis (see StateBits).
const (
	// blissThreshold is the consecutive-service streak that triggers
	// blacklisting (the paper's "Blacklisting Threshold" N = 4).
	blissThreshold = 4
	// blissClearInterval is the blacklist clearing interval in cycles (the
	// paper clears every 10 000 cycles).
	blissClearInterval int64 = 10_000
)

// bliss implements the bliss policy. All state updates happen inside
// PickIndexed — the policy has no per-cycle hook — and the clearing schedule
// is a pure function of ctx.Now, so runs with cycle skipping reproduce the
// naive loop's decisions exactly (picks happen at identical cycles with
// identical candidate sets in both run modes).
//
// Like the other stateful policies (rr, fq), bliss observes only contested
// picks: the controller short-circuits single-candidate scheduling rounds, so
// uncontested service does not extend a streak. A streak is a symptom of
// sustained contention, which by definition involves multiple candidates, so
// the signal survives intact.
type bliss struct {
	last      int // core of the most recently served request (-1 initially)
	streak    int // current consecutive-service run length
	black     []bool
	nextClear int64
}

func newBLISS(cores int) *bliss {
	return &bliss{
		last:      -1,
		black:     make([]bool, cores),
		nextClear: blissClearInterval,
	}
}

func (*bliss) Name() string { return "bliss" }

func (p *bliss) Pick(cands []memctrl.Candidate, ctx *memctrl.Context) int {
	v := memctrl.ViewOf(cands)
	return p.PickIndexed(&v, ctx)
}

func (p *bliss) PickIndexed(view *memctrl.CandidateView, ctx *memctrl.Context) int {
	// Lazy clearing: the bits are conceptually cleared at every multiple of
	// blissClearInterval; applying that at the first pick afterwards is
	// equivalent, because the bits are only ever read here.
	if ctx.Now >= p.nextClear {
		for i := range p.black {
			p.black[i] = false
		}
		p.streak = 0
		p.last = -1
		p.nextClear = (ctx.Now/blissClearInterval + 1) * blissClearInterval
	}
	best := pickBest(view, ctx, func(a, b *memctrl.Candidate) int {
		if c := cmpBool(!p.black[a.Req.Core], !p.black[b.Req.Core]); c != 0 {
			return c
		}
		if c := cmpBool(a.RowHit, b.RowHit); c != 0 {
			return c
		}
		return cmpAge(a, b)
	})
	core := view.At(best).Req.Core
	if core == p.last {
		p.streak++
		if p.streak >= blissThreshold {
			p.black[core] = true
		}
	} else {
		p.last = core
		p.streak = 1
	}
	return best
}
