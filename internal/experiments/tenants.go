package experiments

import (
	"time"

	"vectorliterag/internal/dataset"
	"vectorliterag/internal/rag"
	"vectorliterag/internal/tenant"
	"vectorliterag/internal/workload"
)

// threeTenants is the cast the multi-tenant studies share: gold, silver
// and bronze on one Qwen3-32B/H100 node whose capacity measures ≈38
// req/s, with gold and silver steady well inside it at their base
// rates. Per-tenant search SLOs are the tenants' contracts (gold pays
// for 350 ms at 95 %, silver 500 ms at 85 %, bronze 300 ms at best
// effort). Each study adds its own rate schedules.
func (cfg Config) threeTenants(duration time.Duration) (rag.Options, error) {
	dep := qwenH100()
	goldW, err := WorkloadFor(dataset.Orcas1K)
	if err != nil {
		return rag.Options{}, err
	}
	silverW, err := WorkloadFor(dataset.WikiAll)
	if err != nil {
		return rag.Options{}, err
	}
	return rag.Options{
		Node: dep.Node, Model: dep.Model,
		Tenants: []rag.TenantConfig{
			{Name: "gold", Tier: tenant.Gold, W: goldW, Rate: 9, SLOSearch: 350 * time.Millisecond},
			{Name: "silver", Tier: tenant.Silver, W: silverW, Rate: 3, SLOSearch: 500 * time.Millisecond},
			{Name: "bronze", Tier: tenant.Bronze, W: goldW, Rate: 2.5, SLOSearch: 300 * time.Millisecond},
		},
		Duration: duration, Seed: cfg.Seed,
	}, nil
}

// Tenants is the multi-tenant isolation study (beyond the paper,
// extending Algorithm 1 to shared-GPU tenancy): three tenants — gold
// and silver with steady traffic, bronze with a flash-crowd burst
// schedule — share one node under the joint HBM allocator. The fair
// arm meters admission through the FairScheduler (weighted round-robin
// with tier-aware preemption ordering); the baseline shares one
// unmetered queue. The artifact: gold's SLO attainment stays at or
// above its tier target under the FairScheduler while the shared-queue
// baseline lets the bronze burst drag it below. Identical tenants,
// allocation, and arrival traces run under both scheduling arms.
func Tenants(cfg Config) (*Report, error) {
	duration := 240 * time.Second
	if cfg.Quick {
		duration = 120 * time.Second
	}
	opts, err := cfg.threeTenants(duration)
	if err != nil {
		return nil, err
	}
	// Bronze idles at 2.5 req/s but bursts to 45 req/s — transiently
	// ~1.5× node capacity — for 15 s of every minute.
	const period, burstLen = 60 * time.Second, 15 * time.Second
	opts.Tenants[2].RateSchedule = workload.Bursts(2.5, 45, period, burstLen)

	rep := &Report{}
	rep.Printf("Multi-tenant isolation: gold/silver steady, bronze bursts (%v of every %v)\n", burstLen, period)
	rep.Printf("joint HBM allocation identical across arms; only the admission policy differs\n\n")
	t := rep.Table(
		col("arm", "", "arm", ""),
		col("tenant", "", "tenant", ""),
		col("tier", "", "tier", ""),
		col("rate", "%.1f", "rate", "%.1f"),
		col("rho", "%.3f", "rho", ""),
		col("attainment", "%.3f", "attainment", ""),
		col("target", "%.2f", "target", "%.2f"),
		col("met", "", "met", ""),
		col("TTFT p90", "%.0fms", "ttft_p90_s", ""),
		col("peak queue", "", "peak_queue", ""),
		csvCol("jain_fairness", ""),
	)
	err = eachArm(opts, []arm[rag.Options]{
		{name: "fair"},
		{"shared-queue", func(o *rag.Options) { o.SharedQueue = true }},
	}, func(name string, o rag.Options) error {
		r, err := rag.Run(o)
		if err != nil {
			return err
		}
		for _, tr := range r.Tenants {
			att, target := tr.Summary.Attainment, tr.Tier.Target()
			t.Add(name, tr.Name, string(tr.Tier), tr.Rate, tr.Alloc.Rho, att, target, att >= target,
				tr.Summary.TTFT.P90, tr.PeakQueue, r.Fairness)
		}
		rep.Printf("\n%s: Jain fairness %.3f", name, r.Fairness)
		return nil
	})
	if err != nil {
		return nil, err
	}
	fair, shared := t.Row("arm", "fair", "tenant", "gold"), t.Row("arm", "shared-queue", "tenant", "gold")
	if fair.Bool("met") && !shared.Bool("met") {
		rep.Printf("\nbronze burst contained: gold holds its tier target only under the FairScheduler ✓\n")
	} else {
		rep.Printf("\ngold attainment: fair %.3f vs shared-queue %.3f (target %.2f)\n",
			fair.Float("attainment"), shared.Float("attainment"), fair.Float("target"))
	}
	return rep, nil
}
