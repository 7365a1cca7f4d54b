package reliability

import "testing"

// BenchmarkFleet10k measures the paper-scale fleet simulation (10,000
// modules, 10 years, quarterly sweeps) through the default sharded path.
func BenchmarkFleet10k(b *testing.B) {
	m := DefaultVCSEL()
	cfg := DefaultFleet()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep := RunFleet(int64(i+1), m, cfg, 0)
		if rep.Failures == 0 {
			b.Fatal("no failures")
		}
	}
}

// BenchmarkFleet10kSerial is the single-goroutine reference: the speedup
// of BenchmarkFleet10k over this is the fleet parallelization win (≈1× on
// a single-core host, approaching the core count on larger machines
// because shards are embarrassingly parallel).
func BenchmarkFleet10kSerial(b *testing.B) {
	m := DefaultVCSEL()
	cfg := DefaultFleet()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep := runFleetSerial(int64(i+1), m, cfg)
		if rep.Failures == 0 {
			b.Fatal("no failures")
		}
	}
}

// BenchmarkFleetTrials8 measures the 8-seed trial sweep that the
// multi-trial reliability experiment runs (the fan-out unit the
// acceptance speedup criterion is stated over).
func BenchmarkFleetTrials8(b *testing.B) {
	m := DefaultVCSEL()
	cfg := DefaultFleet()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := RunFleetTrials(int64(i+1), 8, m, cfg, 0)
		if tr.Failures.Mean == 0 {
			b.Fatal("no failures")
		}
	}
}

// BenchmarkFleetTrials8Serial is the same sweep forced onto one worker.
func BenchmarkFleetTrials8Serial(b *testing.B) {
	m := DefaultVCSEL()
	cfg := DefaultFleet()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := RunFleetTrials(int64(i+1), 8, m, cfg, 1)
		if tr.Failures.Mean == 0 {
			b.Fatal("no failures")
		}
	}
}
