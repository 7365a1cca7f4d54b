package paper

import (
	"fmt"

	"flexsfp/internal/exp"
	"flexsfp/internal/reliability"
)

// ---------------------------------------------------------------------------
// §5.3 reliability: VCSEL wear-out fleet simulation.

// ReliabilityResult wraps the fleet report.
type ReliabilityResult struct {
	Report reliability.FleetReport
	Config reliability.FleetConfig
}

// ReliabilityExperiment runs the default 10k-module, 10-year fleet.
func ReliabilityExperiment(seed int64) ReliabilityResult {
	cfg := reliability.DefaultFleet()
	return ReliabilityResult{
		Report: reliability.RunFleet(seed, reliability.DefaultVCSEL(), cfg, 0),
		Config: cfg,
	}
}

// Render formats the fleet report.
func (r ReliabilityResult) Render() string {
	rep := r.Report
	t := exp.NewTable("Metric", "Value")
	t.Add("Fleet size", rep.Modules)
	t.Add("Horizon (years)", r.Config.Years)
	t.Add("Laser failures in horizon", rep.Failures)
	t.Add("Detected early via DDM", fmt.Sprintf("%d (%.1f%%)", rep.DetectedEarly,
		100*float64(rep.DetectedEarly)/float64(maxInt(rep.Failures, 1))))
	t.Add("Sampled MTTF (years)", fmt.Sprintf("%.1f", rep.MTTFYears))
	t.Add("TTF p10/p90 (years)", fmt.Sprintf("%.1f / %.1f", rep.P10Years, rep.P90Years))
	t.Add("Std SFP module swaps ($)", fmt.Sprintf("%.0f", rep.StandardSwapCostUSD))
	t.Add("FlexSFP module swaps ($)", fmt.Sprintf("%.0f", rep.FlexModuleSwapCostUSD))
	t.Add("FlexSFP laser repairs ($)", fmt.Sprintf("%.0f", rep.FlexLaserRepairUSD))
	t.Add("Laser-repair saving", fmt.Sprintf("%.0f%%", rep.LaserRepairSavingFrac*100))
	return "Reliability (§5.3): VCSEL lognormal wear-out fleet simulation\n" + t.String()
}

// ReliabilityTrialsResult wraps the multi-seed fleet report.
type ReliabilityTrialsResult struct {
	Report reliability.FleetTrialsReport
	Config reliability.FleetConfig
}

// ReliabilityExperimentTrials runs the 10k-module fleet for trials seeds
// in parallel.
func ReliabilityExperimentTrials(rootSeed int64, trials, parallelism int) ReliabilityTrialsResult {
	cfg := reliability.DefaultFleet()
	return ReliabilityTrialsResult{
		Report: reliability.RunFleetTrials(rootSeed, trials, reliability.DefaultVCSEL(), cfg, parallelism),
		Config: cfg,
	}
}

// Render formats the multi-seed fleet report.
func (r ReliabilityTrialsResult) Render() string {
	rep := r.Report
	t := exp.NewTable("Metric", "Mean ± 95% CI")
	t.Add("Fleet size", rep.Modules)
	t.Add("Trials", rep.Trials)
	t.Add("Laser failures in horizon", fmtCI(rep.Failures, 1))
	t.Add("Detected early via DDM", fmtCI(rep.DetectedEarly, 1))
	t.Add("Sampled MTTF (years)", fmtCI(rep.MTTFYears, 2))
	t.Add("TTF p10 (years)", fmtCI(rep.P10Years, 2))
	t.Add("TTF p90 (years)", fmtCI(rep.P90Years, 2))
	t.Add("Std SFP module swaps ($)", fmtCI(rep.StandardSwapCostUSD, 0))
	t.Add("FlexSFP module swaps ($)", fmtCI(rep.FlexModuleSwapCostUSD, 0))
	t.Add("FlexSFP laser repairs ($)", fmtCI(rep.FlexLaserRepairUSD, 0))
	t.Add("Laser-repair saving", fmtCI(rep.LaserRepairSavingFrac, 3))
	return "Reliability (§5.3): VCSEL wear-out fleet, multi-seed\n" + t.String()
}

// runReliability is the registered entry point.
func runReliability(ctx exp.RunContext) (exp.Result, error) {
	env := exp.Envelope{Name: "reliability", Params: ctx.Params()}
	if ctx.EffectiveTrials() > 1 {
		r := ReliabilityExperimentTrials(ctx.Seed, ctx.Trials, ctx.Parallelism)
		env.Detail = r
		env.Metrics = []exp.Metric{
			exp.FromSummary("mttf_years", "yr", r.Report.MTTFYears),
			exp.FromSummary("failures", "", r.Report.Failures),
			exp.FromSummary("laser_repair_saving", "frac", r.Report.LaserRepairSavingFrac),
		}
		return exp.NewResult(env, r.Render), nil
	}
	// ctx.Shards is placement-only and the fleet report is identical at
	// any worker count (per-partition seeding), so one runner serves
	// every shard count.
	r := ReliabilityExperiment(ctx.Seed)
	env.Detail = r
	env.Metrics = []exp.Metric{
		exp.Scalar("mttf_years", "yr", r.Report.MTTFYears),
		exp.Scalar("failures", "", float64(r.Report.Failures)),
		exp.Scalar("laser_repair_saving", "frac", r.Report.LaserRepairSavingFrac),
	}
	return exp.NewResult(env, r.Render), nil
}
