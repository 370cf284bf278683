package experiments

import (
	"fmt"
	"time"

	"vectorliterag/internal/dataset"
	"vectorliterag/internal/fault"
	"vectorliterag/internal/rag"
	"vectorliterag/internal/serve"
)

// faultsStorm scripts the storm: the crash lands mid-run with traffic
// in flight, the straggler and bandwidth episodes follow after the
// crashed replica heals, so each failure mode is observed in
// isolation.
func faultsStorm() fault.Schedule {
	return fault.Schedule{
		{Kind: fault.Crash, Replica: 0, At: 30 * time.Second, Duration: 20 * time.Second},
		{Kind: fault.Straggler, Replica: 1, At: 60 * time.Second, Duration: 20 * time.Second, Factor: 5},
		{Kind: fault.Bandwidth, Replica: 2, At: 90 * time.Second, Duration: 15 * time.Second, Factor: 4},
	}
}

// faultsArms returns the four resilience configurations, weakest
// first. The baseline handles nothing: no timeout means no retries,
// and crashed in-flight work fails outright. Timers are sized against
// the cluster's *E2E completion* (seconds at this load — decode
// dominates), not its TTFT: the hedge delay sits between the
// fault-free p99 and the timeout, so backups fire only for the
// stragglers' tail — any tighter and the duplicated load collapses
// the run.
func faultsArms() []arm[rag.Options] {
	const (
		timeout = 30 * time.Second
		hedge   = 15 * time.Second
	)
	with := func(c serve.ResilienceConfig) func(*rag.Options) {
		return func(o *rag.Options) { o.Resilience = &c }
	}
	return []arm[rag.Options]{
		{"baseline", with(serve.ResilienceConfig{})},
		{"retry", with(serve.ResilienceConfig{Timeout: timeout, MaxRetries: 2})},
		{"retry+hedge", with(serve.ResilienceConfig{Timeout: timeout, MaxRetries: 2, HedgeDelay: hedge})},
		{"retry+hedge+degrade", with(serve.ResilienceConfig{Timeout: timeout, MaxRetries: 2, HedgeDelay: hedge, Degrade: true})},
	}
}

// Faults is the failure-resilience study (beyond the paper): a
// 3-replica vLiteRAG cluster under a scripted storm — a replica crash,
// a straggler episode (LLM slowdown), and a bandwidth episode
// (retrieval slowdown) — evaluated under four resilience arms. The
// identical storm and arrival trace hit every arm; only the front
// end's failure handling differs. The artifact: goodput recovers arm
// by arm as failover+retry, hedging, and graceful degradation stack.
//
// It runs on ORCAS-1K + Qwen3-32B at 50 % of per-node capacity per
// replica — enough headroom that the surviving pair can absorb the
// crashed replica's share, the regime graceful degradation is built
// for. The resilient path pins the single shared timeline, so the
// artifact is bit-identical for every worker count.
func Faults(cfg Config) (*Report, error) {
	dep := qwenH100()
	mu, err := dep.capacity()
	if err != nil {
		return nil, err
	}
	const replicas = 3
	rate := round1(mu*0.5) * replicas
	duration := 240 * time.Second
	if cfg.Quick {
		duration = 120 * time.Second
	}
	storm := faultsStorm()
	rep := &Report{}
	rep.Printf("Failure resilience: vLiteRAG x%d, ORCAS-1K + Qwen3-32B @ %.1f req/s cluster-wide\n", replicas, rate)
	rep.Printf("storm: %s\n", storm)
	rep.Printf("identical storm and arrivals per arm; only the front end's failure handling differs\n\n")
	t := rep.Table(
		col("arm", "", "arm", ""),
		col("goodput", "%.2f/s", "goodput_rps", ""),
		col("attainment", "%.3f", "attainment", ""),
		csvCol("requests", ""),
		col("unserved", "", "unserved", ""),
		csvCol("ttft_p90_s", ""),
		csvCol("e2e_p90_s", ""),
		col("retried", "", "retried", ""),
		col("failover", "", "failedover", ""),
		textCol("hedged(wins)", ""),
		csvCol("hedged", ""),
		csvCol("hedge_wins", ""),
		col("timed out", "", "timedout", ""),
		col("failed", "", "failed", ""),
		csvCol("ghosts", ""),
		// The crash episode's time-to-recover: negative when no failed-over
		// request ever completed (the baseline arm), shown as "-".
		textCol("recover", "%.1fs"),
		csvCol("recover_s", ""),
	)
	err = cfg.sweep(grid{
		dep: dep, spec: dataset.Orcas1K, rates: []float64{rate}, arms: faultsArms(),
		base: func(o *rag.Options) {
			o.Duration, o.Faults = duration, storm
			o.Replicas, o.Policy = replicas, serve.LeastLoaded
		},
	}, func(name string, o rag.Options) error {
		r, err := rag.Run(o)
		if err != nil {
			return err
		}
		var recovered time.Duration
		for i, d := range r.Resilience.Recoveries {
			if i == 0 || d > recovered {
				recovered = d
			}
		}
		var shown any = "-"
		if recovered > 0 {
			shown = recovered
		}
		s, st := r.Summary, r.Resilience.Stats
		t.Add(name, r.Resilience.Goodput, s.Attainment, s.N, s.Unserved, s.TTFT.P90, s.E2E.P90,
			st.Retried, st.FailedOver, fmt.Sprintf("%d(%d)", st.Hedged, st.HedgeWins), st.Hedged, st.HedgeWins,
			st.TimedOut, st.Failed, st.Ghosts, shown, recovered)
		return nil
	})
	if err != nil {
		return nil, err
	}
	baseline, full := t.Row("arm", "baseline"), t.Row("arm", "retry+hedge+degrade")
	dropped := baseline.Int("failed") + baseline.Int("unserved")
	if lost := full.Int("failed") + full.Int("unserved"); dropped > 0 && lost == 0 {
		rep.Printf("\nresilience serves every request the baseline dropped (%d) at %.0f%% of baseline goodput ✓\n",
			dropped, 100*full.Float("goodput")/baseline.Float("goodput"))
	} else {
		rep.Printf("\ndropped: baseline %d vs full resilience %d; goodput %.2f/s vs %.2f/s\n",
			dropped, lost, baseline.Float("goodput"), full.Float("goodput"))
	}
	return rep, nil
}
