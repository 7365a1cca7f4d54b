package reliability

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"flexsfp/internal/runner"
)

func TestLognormalTTFStatistics(t *testing.T) {
	m := DefaultVCSEL()
	rng := rand.New(rand.NewSource(1))
	n := 20000
	var logs []float64
	below := 0
	for i := 0; i < n; i++ {
		ttf := m.SampleTTFYears(rng)
		if ttf < m.MedianYears {
			below++
		}
		logs = append(logs, math.Log(ttf))
	}
	// Median property: ≈50% below the median.
	frac := float64(below) / float64(n)
	if math.Abs(frac-0.5) > 0.02 {
		t.Errorf("fraction below median = %.3f", frac)
	}
	// Log-scale standard deviation ≈ sigma.
	var mean, sum2 float64
	for _, l := range logs {
		mean += l
	}
	mean /= float64(n)
	for _, l := range logs {
		sum2 += (l - mean) * (l - mean)
	}
	sd := math.Sqrt(sum2 / float64(n))
	if math.Abs(sd-m.Sigma) > 0.03 {
		t.Errorf("log-sd = %.3f, want %.2f", sd, m.Sigma)
	}
}

func TestDegradationRamp(t *testing.T) {
	m := DefaultVCSEL()
	if m.DegradationAt(0, 10) != 0 {
		t.Error("new laser degraded")
	}
	if m.DegradationAt(10, 10) != 1 {
		t.Error("end-of-life laser not fully degraded")
	}
	// Gradual: at half life the loss is small (0.5^4 ≈ 6%).
	if d := m.DegradationAt(5, 10); d > 0.1 {
		t.Errorf("half-life degradation = %.3f, want gradual", d)
	}
	// Steep finish: at 90% life, substantial loss.
	if d := m.DegradationAt(9, 10); d < 0.5 {
		t.Errorf("late-life degradation = %.3f, want steep", d)
	}
}

func TestDegradationMonotoneProperty(t *testing.T) {
	m := DefaultVCSEL()
	f := func(a, b float64) bool {
		x, y := math.Abs(a), math.Abs(b)
		for x > 20 {
			x /= 10
		}
		for y > 20 {
			y /= 10
		}
		if x > y {
			x, y = y, x
		}
		return m.DegradationAt(x, 20) <= m.DegradationAt(y, 20)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFleetReport(t *testing.T) {
	rep := RunFleet(11, DefaultVCSEL(), DefaultFleet(), 0)
	if rep.Modules != 10000 {
		t.Fatalf("modules = %d", rep.Modules)
	}
	// Median 12y, horizon 10y: a substantial minority fails in-horizon.
	frac := float64(rep.Failures) / float64(rep.Modules)
	if frac < 0.15 || frac > 0.50 {
		t.Errorf("failure fraction = %.3f, want ≈0.3", frac)
	}
	if rep.MTTFYears < 10 || rep.MTTFYears > 18 {
		t.Errorf("MTTF = %.1f years", rep.MTTFYears)
	}
	if rep.P10Years >= rep.P90Years {
		t.Error("percentiles inverted")
	}
	// Quarterly DDM sweeps catch nearly every gradual wear-out before
	// the link dies.
	detected := float64(rep.DetectedEarly) / float64(rep.Failures)
	if detected < 0.95 {
		t.Errorf("early detection = %.2f, want ≥0.95 with quarterly sweeps", detected)
	}
}

func TestReplacementEconomics(t *testing.T) {
	rep := RunFleet(11, DefaultVCSEL(), DefaultFleet(), 0)
	// Laser repair on FlexSFPs saves most of the whole-module cost.
	if rep.LaserRepairSavingFrac < 0.7 {
		t.Errorf("laser-repair saving = %.2f", rep.LaserRepairSavingFrac)
	}
	if rep.FlexLaserRepairUSD >= rep.FlexModuleSwapCostUSD {
		t.Error("component repair not cheaper than module swap")
	}
	// For cheap SFPs, module swap is cheaper than any repair would be.
	if rep.StandardSwapCostUSD >= rep.FlexModuleSwapCostUSD {
		t.Error("standard swap should be the cheapest absolute strategy")
	}
}

func TestComponentRepairViability(t *testing.T) {
	cfg := DefaultFleet()
	// §5.3: viable for the FlexSFP, not for a $10 SFP.
	if !ComponentRepairViable(cfg.FlexSFPUnitUSD, cfg.LaserSubassemblyUSD, cfg.RepairLaborUSD) {
		t.Error("laser repair should be viable for FlexSFP")
	}
	if ComponentRepairViable(cfg.StandardSFPUnitUSD, 8, cfg.RepairLaborUSD) {
		t.Error("laser repair should not be viable for a $10 SFP")
	}
}

func TestFleetDeterminism(t *testing.T) {
	a := RunFleet(5, DefaultVCSEL(), DefaultFleet(), 0)
	b := RunFleet(5, DefaultVCSEL(), DefaultFleet(), 0)
	if a != b {
		t.Error("same seed produced different fleet reports")
	}
	c := RunFleet(6, DefaultVCSEL(), DefaultFleet(), 0)
	if a == c {
		t.Error("different seeds produced identical reports")
	}
}

func TestInspectionIntervalMatters(t *testing.T) {
	cfg := DefaultFleet()
	cfg.InspectionIntervalYears = 3 // rare sweeps miss the warning window
	rare := RunFleet(11, DefaultVCSEL(), cfg, 0)
	frequent := RunFleet(11, DefaultVCSEL(), DefaultFleet(), 0)
	if rare.DetectedEarly >= frequent.DetectedEarly {
		t.Errorf("rare sweeps detected %d ≥ frequent %d", rare.DetectedEarly, frequent.DetectedEarly)
	}
}

// runFleetSerial is the single-loop reference RunFleet is pinned to:
// the same per-partition seeding and reduction, executed on the calling
// goroutine with no pool.
func runFleetSerial(seed int64, m VCSELModel, cfg FleetConfig) FleetReport {
	if !validConfig(m, cfg) {
		return FleetReport{}
	}
	shards := make([]fleetShard, shardCount(cfg.Modules))
	for shard := range shards {
		rng := runner.TrialRand(seed, shard)
		shards[shard] = simShard(rng, shardLen(shard, cfg.Modules), m, cfg)
	}
	return reduceShards(shards, cfg)
}

// The pooled path must match the single-loop reference bit for bit, for
// any worker count and for fleets that don't divide evenly into
// partitions or workers.
func TestShardedFleetMatchesSerial(t *testing.T) {
	m := DefaultVCSEL()
	for _, modules := range []int{1, 100, 1023, 1024, 1025, 4096, 10000} {
		cfg := DefaultFleet()
		cfg.Modules = modules
		want := runFleetSerial(11, m, cfg)
		for _, par := range []int{0, 1, 2, 3, 4, 8} {
			got := RunFleet(11, m, cfg, par)
			if got != want {
				t.Fatalf("modules=%d parallelism=%d: sharded report diverged from serial:\n%+v\nvs\n%+v",
					modules, par, got, want)
			}
		}
	}
	// Invalid config stays a zero-value report with a worker pool too.
	bad := DefaultFleet()
	bad.Modules = 0
	if got := RunFleet(3, m, bad, 4); got != (FleetReport{}) {
		t.Fatalf("invalid config: got %+v, want zero report", got)
	}
}

func TestFleetDeterminismAcrossGOMAXPROCS(t *testing.T) {
	m := DefaultVCSEL()
	cfg := DefaultFleet()
	run := func(procs int) FleetReport {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		return RunFleet(7, m, cfg, 0)
	}
	if a, b := run(1), run(8); a != b {
		t.Fatalf("GOMAXPROCS changed the fleet report:\n%+v\nvs\n%+v", a, b)
	}
}

// Invalid configurations must yield a zero-value report instead of
// dividing by zero or producing NaN percentiles.
func TestFleetEdgeCaseConfigs(t *testing.T) {
	m := DefaultVCSEL()
	cases := []struct {
		name   string
		mutate func(*VCSELModel, *FleetConfig)
	}{
		{"zero-modules", func(m *VCSELModel, c *FleetConfig) { c.Modules = 0 }},
		{"negative-modules", func(m *VCSELModel, c *FleetConfig) { c.Modules = -5 }},
		{"zero-inspection-interval", func(m *VCSELModel, c *FleetConfig) { c.InspectionIntervalYears = 0 }},
		{"negative-inspection-interval", func(m *VCSELModel, c *FleetConfig) { c.InspectionIntervalYears = -1 }},
		{"zero-degradation-exponent", func(m *VCSELModel, c *FleetConfig) { m.DegradationExponent = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mm, cfg := m, DefaultFleet()
			tc.mutate(&mm, &cfg)
			for name, rep := range map[string]FleetReport{
				"RunFleet":       RunFleet(11, mm, cfg, 0),
				"runFleetSerial": runFleetSerial(11, mm, cfg),
			} {
				if rep != (FleetReport{}) {
					t.Errorf("%s returned %+v, want zero report", name, rep)
				}
			}
			tr := RunFleetTrials(11, 4, mm, cfg, 0)
			if tr != (FleetTrialsReport{}) {
				t.Errorf("RunFleetTrials returned %+v, want zero report", tr)
			}
		})
	}
	// Tiny-but-valid fleets must not panic on percentile indexing.
	cfg := DefaultFleet()
	cfg.Modules = 1
	rep := RunFleet(11, m, cfg, 0)
	if rep.Modules != 1 || math.IsNaN(rep.MTTFYears) {
		t.Errorf("single-module report = %+v", rep)
	}
}

func TestRunFleetTrials(t *testing.T) {
	m := DefaultVCSEL()
	cfg := DefaultFleet()
	tr := RunFleetTrials(11, 8, m, cfg, 0)
	if tr.Trials != 8 || tr.Modules != cfg.Modules {
		t.Fatalf("trials report = %+v", tr)
	}
	// Seeds differ, so failure counts must vary across trials...
	if tr.Failures.Stddev == 0 {
		t.Error("independent seeds produced identical failure counts")
	}
	// ...but the mean must stay in the single-seed plausibility band.
	frac := tr.Failures.Mean / float64(cfg.Modules)
	if frac < 0.15 || frac > 0.50 {
		t.Errorf("mean failure fraction = %.3f", frac)
	}
	if tr.Failures.CI95() <= 0 || tr.Failures.CI95() > tr.Failures.Stddev {
		t.Errorf("CI95 = %.2f (stddev %.2f)", tr.Failures.CI95(), tr.Failures.Stddev)
	}
	// Deterministic: same root seed, any parallelism.
	again := RunFleetTrials(11, 8, m, cfg, 1)
	if tr != again {
		t.Error("trials report depends on parallelism")
	}
	if zero := RunFleetTrials(11, 0, m, cfg, 0); zero != (FleetTrialsReport{}) {
		t.Error("zero trials should yield zero report")
	}
}
