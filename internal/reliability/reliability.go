// Package reliability makes the §5.3 "Failure Recovery" discussion
// quantitative: VCSEL lasers wear out ahead of the electronics, with
// lognormally-distributed time-to-failure and gradual optical power
// degradation as the dominant mode. The fleet simulation measures how
// often DDM monitoring catches degradation before the link dies, and
// compares replacement economics: whole-module swaps (the only option
// for cheap SFPs) versus component-level laser replacement, which the
// FlexSFP's higher unit price justifies.
package reliability

import (
	"math"
	"math/rand"
	"sort"

	"flexsfp/internal/runner"
)

// VCSELModel is the lognormal wear-out model (per the OMEGA reliability
// assessment the paper cites).
type VCSELModel struct {
	// MedianYears is the median time to failure.
	MedianYears float64
	// Sigma is the lognormal shape parameter.
	Sigma float64
	// DegradationExponent shapes the power-loss ramp: degradation(t) =
	// (t/ttf)^k — slow early wear, then a steep final drop.
	DegradationExponent float64
}

// DefaultVCSEL returns parameters consistent with published VCSEL
// reliability studies: median TTF ≈ 12 years, σ ≈ 0.5.
func DefaultVCSEL() VCSELModel {
	return VCSELModel{MedianYears: 12, Sigma: 0.5, DegradationExponent: 4}
}

// SampleTTFYears draws one time-to-failure.
func (m VCSELModel) SampleTTFYears(rng *rand.Rand) float64 {
	return m.MedianYears * math.Exp(m.Sigma*rng.NormFloat64())
}

// DegradationAt returns the fractional optical power loss at age t for a
// part that fails (reaches full degradation) at ttf.
func (m VCSELModel) DegradationAt(t, ttf float64) float64 {
	if t <= 0 {
		return 0
	}
	if t >= ttf {
		return 1
	}
	return math.Pow(t/ttf, m.DegradationExponent)
}

// FleetConfig drives the fleet simulation.
type FleetConfig struct {
	Modules int
	Years   float64
	// InspectionIntervalYears is how often DDM telemetry is evaluated.
	InspectionIntervalYears float64
	// WarnDegradation is the degradation fraction at which DDM flags the
	// laser (≈2 dB power drop → 0.37).
	WarnDegradation float64
	// Replacement economics.
	StandardSFPUnitUSD  float64 // whole cheap module
	FlexSFPUnitUSD      float64 // whole FlexSFP
	LaserSubassemblyUSD float64 // component-level repair part
	RepairLaborUSD      float64 // per-intervention labor (same either way)
}

// DefaultFleet returns the paper-scale scenario: a metro operator with
// 10,000 ports over 10 years, quarterly telemetry sweeps.
func DefaultFleet() FleetConfig {
	return FleetConfig{
		Modules:                 10000,
		Years:                   10,
		InspectionIntervalYears: 0.25,
		WarnDegradation:         0.37,
		StandardSFPUnitUSD:      10,
		FlexSFPUnitUSD:          275,
		LaserSubassemblyUSD:     20,
		RepairLaborUSD:          30,
	}
}

// FleetReport summarizes a fleet run.
type FleetReport struct {
	Modules  int
	Failures int // lasers that reached end of life in the horizon
	// DetectedEarly is how many were flagged by a DDM sweep before the
	// link actually died (the §5.3 visibility advantage).
	DetectedEarly int
	// MTTFYears is the mean sampled TTF (including beyond-horizon parts).
	MTTFYears float64
	// P10 / P90 of sampled TTFs.
	P10Years, P90Years float64

	// Economics over the horizon (replacement costs only).
	StandardSwapCostUSD   float64 // cheap SFP: swap the module
	FlexModuleSwapCostUSD float64 // FlexSFP: swap the whole module
	FlexLaserRepairUSD    float64 // FlexSFP: replace the laser subassembly
	// LaserRepairSavingFrac is the fraction saved by component-level
	// repair versus whole-FlexSFP swaps.
	LaserRepairSavingFrac float64
}

// fleetShardSize is how many modules one worker simulates per shard.
// Each shard draws from its own RNG seeded by runner.TrialSeed(seed,
// shard), so the sample stream of module i depends only on (seed, i/
// fleetShardSize) and the merged report is identical for any worker
// count.
const fleetShardSize = 1024

// validConfig reports whether the fleet configuration is simulatable;
// invalid configurations yield a zero-value report instead of NaNs.
func validConfig(m VCSELModel, cfg FleetConfig) bool {
	return cfg.Modules > 0 && cfg.InspectionIntervalYears > 0 && m.DegradationExponent > 0
}

// fleetShard is one worker's partial result.
type fleetShard struct {
	failures int
	detected int
	sum      float64
	ttfs     []float64
}

// simShard simulates modules [lo, hi) of the fleet with a private RNG.
func simShard(rng *rand.Rand, n int, m VCSELModel, cfg FleetConfig) fleetShard {
	sh := fleetShard{ttfs: make([]float64, n)}
	for i := 0; i < n; i++ {
		ttf := m.SampleTTFYears(rng)
		sh.ttfs[i] = ttf
		sh.sum += ttf
		if ttf <= cfg.Years {
			sh.failures++
			// Was there an inspection between the warn point and death?
			warnAge := ttf * math.Pow(cfg.WarnDegradation, 1/m.DegradationExponent)
			firstSweepAfterWarn := math.Ceil(warnAge/cfg.InspectionIntervalYears) * cfg.InspectionIntervalYears
			if firstSweepAfterWarn < ttf {
				sh.detected++
			}
		}
	}
	return sh
}

// reduceShards merges per-shard results in shard order — a deterministic
// reduce, independent of which worker finished first.
func reduceShards(shards []fleetShard, cfg FleetConfig) FleetReport {
	rep := FleetReport{Modules: cfg.Modules}
	var sum float64
	all := make([]float64, 0, cfg.Modules)
	for _, sh := range shards {
		rep.Failures += sh.failures
		rep.DetectedEarly += sh.detected
		sum += sh.sum
		all = append(all, sh.ttfs...)
	}
	rep.MTTFYears = sum / float64(cfg.Modules)
	sort.Float64s(all)
	rep.P10Years = all[cfg.Modules/10]
	rep.P90Years = all[cfg.Modules*9/10]

	f := float64(rep.Failures)
	rep.StandardSwapCostUSD = f * (cfg.StandardSFPUnitUSD + cfg.RepairLaborUSD)
	rep.FlexModuleSwapCostUSD = f * (cfg.FlexSFPUnitUSD + cfg.RepairLaborUSD)
	rep.FlexLaserRepairUSD = f * (cfg.LaserSubassemblyUSD + cfg.RepairLaborUSD)
	if rep.FlexModuleSwapCostUSD > 0 {
		rep.LaserRepairSavingFrac = 1 - rep.FlexLaserRepairUSD/rep.FlexModuleSwapCostUSD
	}
	return rep
}

func shardCount(modules int) int {
	return (modules + fleetShardSize - 1) / fleetShardSize
}

func shardLen(shard, modules int) int {
	n := fleetShardSize
	if hi := (shard + 1) * fleetShardSize; hi > modules {
		n = modules - shard*fleetShardSize
	}
	return n
}

// RunFleet simulates the fleet deterministically for a seed. Module
// partitions are spread over parallelism workers (0 = GOMAXPROCS); each
// partition draws from its own runner.TrialRand(seed, partition) stream
// and the reduction runs in partition order, so the report is
// bit-identical for any parallelism.
func RunFleet(seed int64, m VCSELModel, cfg FleetConfig, parallelism int) FleetReport {
	if !validConfig(m, cfg) {
		return FleetReport{}
	}
	shards, _ := runner.Map(shardCount(cfg.Modules),
		runner.Options{Seed: seed, Parallelism: parallelism},
		func(shard int, rng *rand.Rand) (fleetShard, error) {
			return simShard(rng, shardLen(shard, cfg.Modules), m, cfg), nil
		})
	return reduceShards(shards, cfg)
}

// FleetTrialsReport aggregates RunFleet over many independent seeds:
// every headline metric becomes a mean ± stddev with a 95% CI, which is
// what the multi-trial evaluation reports instead of single-seed point
// estimates.
type FleetTrialsReport struct {
	Trials  int
	Modules int

	Failures      runner.Summary
	DetectedEarly runner.Summary
	MTTFYears     runner.Summary
	P10Years      runner.Summary
	P90Years      runner.Summary

	StandardSwapCostUSD   runner.Summary
	FlexModuleSwapCostUSD runner.Summary
	FlexLaserRepairUSD    runner.Summary
	LaserRepairSavingFrac runner.Summary
}

// RunFleetTrials runs the fleet simulation for `trials` independent seeds
// derived from rootSeed (trial t uses runner.TrialSeed(rootSeed, t)) with
// trials spread across workers, and reduces to cross-trial statistics.
// Each trial's fleet runs on a single worker — parallelism comes from
// the trial fan-out, so nested pools never oversubscribe.
func RunFleetTrials(rootSeed int64, trials int, m VCSELModel, cfg FleetConfig, parallelism int) FleetTrialsReport {
	if trials <= 0 || !validConfig(m, cfg) {
		return FleetTrialsReport{}
	}
	reports, _ := runner.Map(trials,
		runner.Options{Seed: rootSeed, Parallelism: parallelism},
		func(trial int, _ *rand.Rand) (FleetReport, error) {
			return RunFleet(runner.TrialSeed(rootSeed, trial), m, cfg, 1), nil
		})
	rep := FleetTrialsReport{Trials: trials, Modules: cfg.Modules}
	rep.Failures = runner.Collect(reports, func(r FleetReport) float64 { return float64(r.Failures) })
	rep.DetectedEarly = runner.Collect(reports, func(r FleetReport) float64 { return float64(r.DetectedEarly) })
	rep.MTTFYears = runner.Collect(reports, func(r FleetReport) float64 { return r.MTTFYears })
	rep.P10Years = runner.Collect(reports, func(r FleetReport) float64 { return r.P10Years })
	rep.P90Years = runner.Collect(reports, func(r FleetReport) float64 { return r.P90Years })
	rep.StandardSwapCostUSD = runner.Collect(reports, func(r FleetReport) float64 { return r.StandardSwapCostUSD })
	rep.FlexModuleSwapCostUSD = runner.Collect(reports, func(r FleetReport) float64 { return r.FlexModuleSwapCostUSD })
	rep.FlexLaserRepairUSD = runner.Collect(reports, func(r FleetReport) float64 { return r.FlexLaserRepairUSD })
	rep.LaserRepairSavingFrac = runner.Collect(reports, func(r FleetReport) float64 { return r.LaserRepairSavingFrac })
	return rep
}

// ComponentRepairViable captures the §5.3 argument: component-level
// replacement makes sense when the repair part + labor costs materially
// less than the module; for a $10 SFP it never does, for a $275 FlexSFP
// it does.
func ComponentRepairViable(moduleUSD, partUSD, laborUSD float64) bool {
	return partUSD+laborUSD < 0.5*moduleUSD
}
