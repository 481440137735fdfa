package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"memsched/internal/sweepd"
)

// The sweepd_stub workload drives a coordinator on loopback TCP through the
// public sweepd.Client, closed loop: one submitter keeps sweepWindow sweeps
// in flight and collects their outcomes, and nproc-1 stub worker loops claim
// claimBatch leases and complete them with a canned payload at once. No job
// simulates anything, so the numbers are the coordinator's cost.
const (
	sweepSize   = 250
	sweepWindow = 2
	claimBatch  = 32
	// repeatEvery: one job in repeatEvery repeats the spec of an earlier job
	// among the last repeatHistory fresh ones, so cache hits (finished twin)
	// and coalescing (in-flight twin) run beside fresh execution.
	repeatEvery   = 4
	repeatHistory = 4096
	// sessionJobs bounds one coordinator's lifetime. The coordinator keeps
	// every finished sweep and cached result for its whole life, so the
	// workload starts a fresh one (a new set-up) after this many jobs to keep
	// the process's memory bounded by the session, not the run length.
	sessionJobs = 40_000
	// tailBlock is how many consecutive sweeps (about a second of a run) share
	// one tail in op_s_tail; the reported tail is the median over the blocks.
	tailBlock = 200
)

// stubValue is the result payload every stub worker completes with.
var stubValue = json.RawMessage(`{"perfbench_stub":true}`)

// sweepStats are one phase's client-side measurements.
type sweepStats struct {
	jobs                int
	elapsed             time.Duration // summed over sessions, first submit to last outcome
	sweepDurs           []float64
	claimMs, completeMs []float64
	submitMs            []float64
	roundTrips          int64
	failedCalls         int64
	lostLeases          int64
	served              int64 // jobs served from cache or coalesced
	setupS              []float64
	allocBytes          uint64
}

// jobGen makes the seeded job stream.
type jobGen struct {
	rng     *rand.Rand
	fresh   uint64
	history []sweepd.JobSpecV1
	seq     int
}

func newJobGen(seed uint64) *jobGen {
	return &jobGen{rng: rand.New(rand.NewPCG(seed, 0x5EEDD))}
}

func (g *jobGen) sweep() []sweepd.JobV1 {
	jobs := make([]sweepd.JobV1, sweepSize)
	for i := range jobs {
		var spec sweepd.JobSpecV1
		if len(g.history) > 0 && g.rng.IntN(repeatEvery) == 0 {
			spec = g.history[g.rng.IntN(len(g.history))]
		} else {
			g.fresh++
			spec = sweepd.JobSpecV1{Mix: "2MEM-1", Policy: "fcfs", Instr: 1000, Seed: g.fresh}
			if len(g.history) == repeatHistory {
				g.history = g.history[1:]
			}
			g.history = append(g.history, spec)
		}
		g.seq++
		jobs[i] = sweepd.JobV1{ID: i, Key: fmt.Sprintf("j%d", g.seq), Spec: spec}
	}
	return jobs
}

// checkSweep returns how many of the sweep's jobs did not come back exactly
// once, in their slot, with the stub payload.
func checkSweep(jobs []sweepd.JobV1, out sweepd.OutcomesResponseV1) int {
	bad := 0
	if !out.Done {
		bad++
	}
	for i, j := range jobs {
		if i >= len(out.Outcomes) {
			bad += len(jobs) - i
			break
		}
		o := out.Outcomes[i]
		if o.ID != j.ID || o.Key != j.Key || o.Err != "" || !bytes.Equal(o.Value, stubValue) {
			bad++
		}
	}
	if extra := len(out.Outcomes) - len(jobs); extra > 0 {
		bad += extra
	}
	return bad
}

// accountingGap returns how far the coordinator's counters are from
// accounting for every submitted job exactly once: each job was executed,
// served from cache, or coalesced onto an identical in-flight job, and
// workers executed each distinct spec once.
func accountingGap(st sweepd.StatsV1, submitted, executed int64) int64 {
	gap := abs(st.Executed + st.CacheHits + st.Coalesced - submitted)
	gap += abs(st.Executed - executed)
	return gap + st.Failed + st.Requeues
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// session is one coordinator with its loopback listener.
type session struct {
	coord  *sweepd.Coordinator
	srv    *http.Server
	served chan error
	client *sweepd.Client
}

// startSession is the workload's set-up: a coordinator with library
// defaults, a loopback listener, and the first round trip.
func startSession(ctx context.Context) (*session, error) {
	coord, err := sweepd.NewCoordinator(sweepd.CoordinatorConfig{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		coord.Close()
		return nil, err
	}
	s := &session{coord: coord, srv: &http.Server{Handler: coord.Handler()},
		served: make(chan error, 1), client: sweepd.NewClient(ln.Addr().String())}
	go func() { s.served <- s.srv.Serve(ln) }()
	if _, err := s.client.Stats(ctx); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *session) close() {
	s.srv.Close()
	<-s.served
	s.coord.Close()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// runSession pushes sweeps through one session until maxJobs are submitted
// or the deadline passes, then waits for every outcome and checks the
// coordinator's accounting.
func runSession(ctx context.Context, s *session, gen *jobGen, maxJobs int, deadline time.Time,
	rep *report, st *sweepStats) error {
	workers := runtime.NumCPU() - 1
	if workers < 1 {
		workers = 1
	}
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make([]workerResult, workers)
	var wg sync.WaitGroup
	for w := range results {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = stubWorker(wctx, s.client, fmt.Sprintf("stub-%d", w))
		}(w)
	}

	type inflight struct {
		jobs []sweepd.JobV1
		id   string
		t0   time.Time
	}
	var queue []inflight
	submitted := 0
	t0 := time.Now()
	for {
		if len(queue) < sweepWindow && submitted < maxJobs && time.Now().Before(deadline) {
			jobs := gen.sweep()
			t := time.Now()
			resp, err := s.client.Submit(ctx, sweepd.SweepRequestV1{Jobs: jobs})
			st.submitMs = append(st.submitMs, float64(time.Since(t).Nanoseconds())/1e6)
			st.roundTrips++
			rep.attempted += len(jobs)
			submitted += len(jobs)
			if err != nil {
				if ctx.Err() != nil {
					break
				}
				st.failedCalls++
				rep.failed += len(jobs)
				rep.notef("FAIL: submit: %v", err)
				continue
			}
			st.served += int64(resp.CacheHits + resp.Coalesced)
			queue = append(queue, inflight{jobs, resp.SweepID, t})
			continue
		}
		if len(queue) == 0 {
			break
		}
		sw := queue[0]
		queue = queue[1:]
		out, err := s.client.Outcomes(ctx, sw.id, true)
		st.roundTrips++
		if err != nil {
			if ctx.Err() != nil {
				break
			}
			st.failedCalls++
			rep.failed += len(sw.jobs)
			rep.notef("FAIL: outcomes of %s: %v", sw.id, err)
			continue
		}
		st.sweepDurs = append(st.sweepDurs, time.Since(sw.t0).Seconds())
		st.jobs += len(sw.jobs)
		if bad := checkSweep(sw.jobs, out); bad > 0 {
			rep.failed += bad
			rep.notef("FAIL: sweep %s: %d jobs missing, duplicated or wrong", sw.id, bad)
		}
	}
	st.elapsed += time.Since(t0)
	cancel()
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}

	executed := map[string]bool{}
	for _, r := range results {
		st.claimMs = append(st.claimMs, r.claimMs...)
		st.completeMs = append(st.completeMs, r.completeMs...)
		st.roundTrips += int64(len(r.claimMs) + len(r.completeMs))
		st.failedCalls += r.failedCalls
		st.lostLeases += r.lost
		rep.failed += int(r.failedCalls + r.lost)
		for _, k := range r.keys {
			if executed[k] {
				rep.fail("job %s executed twice", k)
			}
			executed[k] = true
		}
	}
	if gap := accountingGap(s.coord.Stats(), int64(submitted), int64(len(executed))); gap != 0 {
		rep.failed += int(gap)
		rep.notef("FAIL: coordinator accounting off by %d: %+v for %d submitted, %d executed",
			gap, s.coord.Stats(), submitted, len(executed))
	}
	return nil
}

// workerResult is one stub worker loop's record.
type workerResult struct {
	claimMs, completeMs []float64
	keys                []string // keys of the jobs it executed
	failedCalls, lost   int64
}

// stubWorker claims leases in batches and completes them with stubValue
// until ctx is cancelled.
func stubWorker(ctx context.Context, cl *sweepd.Client, name string) workerResult {
	var r workerResult
	for ctx.Err() == nil {
		t := time.Now()
		resp, err := cl.Claim(ctx, name, claimBatch)
		if ctx.Err() != nil {
			return r
		}
		r.claimMs = append(r.claimMs, float64(time.Since(t).Nanoseconds())/1e6)
		if err != nil {
			r.failedCalls++
			continue
		}
		if len(resp.Leases) == 0 {
			// The submitter is between sweeps; poll again shortly.
			select {
			case <-ctx.Done():
			case <-time.After(100 * time.Microsecond):
			}
			continue
		}
		comps := make([]sweepd.CompleteRequestV1, len(resp.Leases))
		for i, l := range resp.Leases {
			comps[i] = sweepd.CompleteRequestV1{LeaseID: l.LeaseID, Value: stubValue}
			r.keys = append(r.keys, l.Job.Key)
		}
		t = time.Now()
		bresp, err := cl.CompleteBatch(ctx, comps)
		if errors.Is(err, context.Canceled) && ctx.Err() != nil {
			// Cancelled only after every outcome arrived, so these leases
			// were already complete; nothing is lost.
			return r
		}
		r.completeMs = append(r.completeMs, float64(time.Since(t).Nanoseconds())/1e6)
		if err != nil {
			r.failedCalls++
			continue
		}
		r.lost += int64(len(bresp.Lost))
	}
	return r
}

// sweepPhase runs sessions until the budget is spent.
func sweepPhase(ctx context.Context, gen *jobGen, budget time.Duration, rep *report) (*sweepStats, error) {
	st := &sweepStats{}
	c0 := readCounters()
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		t := time.Now()
		s, err := startSession(ctx)
		if err != nil {
			return nil, fmt.Errorf("starting coordinator: %w", err)
		}
		st.setupS = append(st.setupS, time.Since(t).Seconds())
		err = runSession(ctx, s, gen, sessionJobs, deadline, rep, st)
		s.close()
		if err != nil {
			return nil, err
		}
	}
	st.allocBytes = readCounters().allocBytes - c0.allocBytes
	return st, nil
}

// runSweepdStub is the sweepd_stub workload.
func runSweepdStub(ctx context.Context, cfg runConfig) (*report, error) {
	rep := newReport()
	gen := newJobGen(cfg.seed)
	m := rep.metrics
	if !cfg.traced {
		st, err := sweepPhase(ctx, gen, cfg.budget, rep)
		if err != nil {
			return nil, err
		}
		if st.jobs == 0 {
			return nil, fmt.Errorf("no sweep completed")
		}
		m["ops_per_s"] = float64(st.jobs) / st.elapsed.Seconds()
		m["op_s_p50"] = median(st.sweepDurs)
		tailV, tailPct, blocks := blockTail(st.sweepDurs, tailBlock)
		m["op_s_tail"] = tailV
		m["alloc_mb_per_op"] = float64(st.allocBytes) / 1e6 / float64(st.jobs)
		m["setup_s"] = median(st.setupS)
		wholeV, wholePct := tail(st.sweepDurs)
		rep.notef("jobs %d in %d sweeps over %d sessions; sweep_s_tail is the median over %d blocks "+
			"of each block's p%.1f; over the whole run p%.1f is %.6g s", st.jobs, len(st.sweepDurs),
			len(st.setupS), blocks, tailPct, wholePct, wholeV)
		return rep, nil
	}
	un, err := sweepPhase(ctx, gen, cfg.budget/2, rep)
	if err != nil {
		return nil, err
	}
	prof, err := startProfile(cfg.profDir, cfg.name)
	if err != nil {
		return nil, err
	}
	tr, err := sweepPhase(ctx, gen, cfg.budget/2, rep)
	lp, perr := prof.stop(ctx)
	if err != nil {
		return nil, err
	}
	if perr != nil {
		return nil, perr
	}
	if un.jobs == 0 || tr.jobs == 0 {
		return nil, fmt.Errorf("no sweep completed")
	}
	lp.selfPct(m)
	m["bench.trace_overhead_pct"] = 100 * (median(tr.sweepDurs)/median(un.sweepDurs) - 1)
	m["sweepd.claim_ms_p50"] = quantile(tr.claimMs, 0.50)
	m["sweepd.claim_ms_p99"] = quantile(tr.claimMs, 0.99)
	m["sweepd.complete_ms_p50"] = quantile(tr.completeMs, 0.50)
	m["sweepd.submit_ms_p50"] = quantile(tr.submitMs, 0.50)
	m["sweepd.round_trips_per_job"] = float64(tr.roundTrips) / float64(tr.jobs)
	m["sweepd.cache_hit_ratio"] = float64(tr.served) / float64(tr.jobs)
	m["sweepd.failed_calls"] = float64(un.failedCalls + tr.failedCalls)
	m["sweepd.lost_leases"] = float64(un.lostLeases + tr.lostLeases)
	rep.notef("untraced jobs %d, traced jobs %d; profile %s (%v of samples)",
		un.jobs, tr.jobs, prof.path, lp.total)
	return rep, nil
}
