package paper

import (
	"fmt"
	"math/rand"

	"flexsfp/internal/apps"
	"flexsfp/internal/build"
	"flexsfp/internal/exp"
	"flexsfp/internal/hls"
	"flexsfp/internal/netsim"
	"flexsfp/internal/ppe"
	"flexsfp/internal/runner"
	"flexsfp/internal/telemetry"
	"flexsfp/internal/trafficgen"
)

// ---------------------------------------------------------------------------
// §5.1 line-rate verification.

// LineRatePoint is one frame-size measurement.
type LineRatePoint struct {
	Label        string
	FrameSize    int // 0 for IMIX
	OfferedPPS   float64
	DeliveredPPS float64
	GoodputGbps  float64
	Drops        uint64
	LineRate     bool // no PPE queue overflow (Drops == 0)
	// Telemetry carries the headline in-cable counters when the run was
	// instrumented (RunContext.Telemetry); nil — and omitted from JSON —
	// otherwise, so canonical envelopes are unchanged by default.
	Telemetry *CaseTelemetry `json:",omitempty"`
}

// CaseTelemetry is the headline counter set folded out of an instrumented
// case's metric registry.
type CaseTelemetry struct {
	FramesIn      uint64  `json:"frames_in"`
	BytesIn       uint64  `json:"bytes_in"`
	QueueDrops    uint64  `json:"queue_drops"`
	MeanLatencyNs float64 `json:"mean_latency_ns"`
	MaxLatencyNs  uint64  `json:"max_latency_ns"`
	MaxQueueDepth uint64  `json:"max_queue_depth"`
}

// LineRateResult is the full sweep.
type LineRateResult struct {
	Points []LineRatePoint
}

// lineRateCase is one frame-size configuration of the sweep.
type lineRateCase struct {
	label string
	sizes []trafficgen.IMIXEntry
	size  int
}

func lineRateCases() []lineRateCase {
	var cases []lineRateCase
	for _, n := range []int{64, 128, 256, 512, 1024, 1518} {
		cases = append(cases, lineRateCase{fmt.Sprintf("%dB", n), []trafficgen.IMIXEntry{{Size: n, Weight: 1}}, n})
	}
	return append(cases, lineRateCase{"IMIX", trafficgen.SimpleIMIX(), 0})
}

// LineRateExperiment drives the NAT module at 10G line rate across frame
// sizes (the §5.1 "simple end-to-end test, which confirmed line-rate
// performance"), one wire-rate drive (driveAtWireRate) per frame size.
func LineRateExperiment(seed int64) (LineRateResult, error) {
	return lineRateSingle(exp.RunContext{Seed: seed})
}

// lineRateSingle runs the sweep: one wire-rate drive per frame size.
func lineRateSingle(ctx exp.RunContext) (LineRateResult, error) {
	cases := lineRateCases()
	drives := make([]wireDrive, len(cases))
	for i, tc := range cases {
		drives[i] = wireDrive{
			Module: build.ModuleSpec{
				Name: "lr-dut-" + tc.label, DeviceID: uint32(i + 1),
				Shell: hls.TwoWayCore, App: "nat",
				ClockHz: ctx.ClockHz, DatapathBits: ctx.DatapathBits,
				Optimize: ctx.Optimize,
				Config: apps.NATConfig{Mappings: []apps.NATMapping{
					{Internal: "10.1.0.1", External: "203.0.113.1"},
				}},
			},
			Traffic: trafficgen.Config{Sizes: tc.sizes, Flows: 32},
		}
	}
	runs, err := driveAtWireRate(ctx, drives)
	if err != nil {
		return LineRateResult{}, err
	}
	res := LineRateResult{Points: make([]LineRatePoint, len(cases))}
	for i, tc := range cases {
		r := runs[i]
		res.Points[i] = LineRatePoint{
			Label:        tc.label,
			FrameSize:    tc.size,
			OfferedPPS:   r.OfferedPPS,
			DeliveredPPS: r.DeliveredPPS,
			GoodputGbps:  r.GoodputGbps,
			Drops:        r.Drops,
			LineRate:     r.Drops == 0,
			Telemetry:    r.Telemetry,
		}
	}
	return res, nil
}

// wireDrive is one independent case of a wire-rate measurement: the
// module under test and the stream offered to it. Traffic.PPS is set by
// the harness.
type wireDrive struct {
	Module  build.ModuleSpec
	Traffic trafficgen.Config
}

// wireRun is what one drive measured over the 1 ms window.
type wireRun struct {
	// Program is the structure of the program the module booted, with
	// its Handler dropped: a finished run keeps no table state alive.
	Program ppe.Program
	// ServiceCycles is the engine's per-frame occupancy at the stream's
	// mean frame size (rounded down).
	ServiceCycles int64
	OfferedPPS    float64
	DeliveredPPS  float64
	GoodputGbps   float64
	Drops         uint64 // PPE queue overflows
	// Telemetry is the module's headline counter set when ctx.Telemetry
	// is on, nil otherwise.
	Telemetry *CaseTelemetry
}

// driveAtWireRate is the one wire-rate measurement path. Each drive
// builds its module on a private simulator seeded with ctx.Seed, puts a
// 10G wire in front of it, meters the optical port, offers its stream at
// the wire rate of the stream's mean frame size for 1 ms and drains for
// 100 µs. Traffic reaches the module through the wire because the link's
// serialization enforces the per-frame spacing a real tester is bound by
// (a mean-paced generator would burst mixed-size traffic above wire
// rate). The drives never exchange a frame, so they need no lookahead
// and run on the runner's pool; a drive's result depends on its seed
// alone, whatever the parallelism.
func driveAtWireRate(ctx exp.RunContext, drives []wireDrive) ([]wireRun, error) {
	return runner.Map(len(drives), runner.Options{Seed: ctx.Seed, Parallelism: ctx.Parallelism},
		func(i int, _ *rand.Rand) (wireRun, error) {
			d := drives[i]
			sim := build.NewSim(ctx.Seed)
			mod, _, err := build.Module(sim, d.Module)
			if err != nil {
				return wireRun{}, err
			}
			// Instrumentation covers the module/PPE counters only: the
			// per-event simulator histogram (Simulator.AttachTelemetry)
			// costs ~30ns on every scheduled event, too hot for a
			// performance measurement. It stays a daemon-side facility.
			var reg *telemetry.Registry
			if ctx.Telemetry {
				reg = telemetry.New()
				mod.AttachTelemetry(reg)
			}
			meter := netsim.NewRateMeter(sim)
			mod.SetTx(1, func(b []byte) {
				meter.Observe(len(b))
				trafficgen.PutBuffer(b)
			})
			mod.SetTx(0, trafficgen.PutBuffer)

			wire := netsim.NewLink(sim, 10_000_000_000, 0, mod.RxEdge)
			cfg := d.Traffic
			cfg.PPS = 10e9 / ((cfg.MeanFrameSize() + 20) * 8)
			gen := trafficgen.New(sim, cfg, func(b []byte) bool { return wire.Send(b) })
			gen.Run(0)
			sim.RunFor(netsim.Millisecond)
			gen.Stop()
			sim.RunFor(100 * netsim.Microsecond)

			prog := *mod.Engine().Program()
			prog.Handler = nil
			window := netsim.Duration(netsim.Millisecond).Seconds()
			return wireRun{
				Program:       prog,
				ServiceCycles: mod.Engine().ServiceCycles(int(cfg.MeanFrameSize())),
				OfferedPPS:    float64(gen.Sent) / window,
				DeliveredPPS:  float64(meter.Frames) / window,
				GoodputGbps:   float64(meter.Bytes) * 8 / window / 1e9,
				Drops:         mod.Engine().Stats().QueueDrop,
				Telemetry:     caseTelemetry(reg),
			}, nil
		})
}

// caseTelemetry folds the headline counters out of a case's registry;
// nil when the case was not instrumented.
func caseTelemetry(reg *telemetry.Registry) *CaseTelemetry {
	if reg == nil {
		return nil
	}
	snap := reg.Snapshot()
	ct := &CaseTelemetry{}
	ct.FramesIn, _ = snap.Counter("ppe.frames_in")
	ct.BytesIn, _ = snap.Counter("ppe.bytes_in")
	ct.QueueDrops, _ = snap.Counter("ppe.queue_drops")
	if lat, ok := snap.Histogram("ppe.latency_ns"); ok && lat.Count > 0 {
		ct.MeanLatencyNs = float64(lat.Sum) / float64(lat.Count)
		ct.MaxLatencyNs = lat.Max
	}
	if qd, ok := snap.Histogram("ppe.queue_depth"); ok {
		ct.MaxQueueDepth = qd.Max
	}
	return ct
}

// Render formats the sweep.
func (r LineRateResult) Render() string {
	t := exp.NewTable("Frames", "Offered (Mpps)", "Delivered (Mpps)", "Goodput (Gb/s)", "Drops", "Line rate?")
	for _, p := range r.Points {
		ok := "yes"
		if !p.LineRate {
			ok = "NO"
		}
		t.Add(p.Label,
			fmt.Sprintf("%.3f", p.OfferedPPS/1e6),
			fmt.Sprintf("%.3f", p.DeliveredPPS/1e6),
			fmt.Sprintf("%.3f", p.GoodputGbps),
			p.Drops, ok)
	}
	return "Line-rate verification (§5.1): NAT at 10 Gb/s\n" + t.String()
}

// LineRatePointTrials is one frame-size point across seeds.
type LineRatePointTrials struct {
	Label        string
	FrameSize    int // 0 for IMIX
	OfferedPPS   runner.Summary
	DeliveredPPS runner.Summary
	GoodputGbps  runner.Summary
	Drops        runner.Summary
	// LineRateAll is true when every trial sustained line rate.
	LineRateAll bool
}

// LineRateTrialsResult is the §5.1 sweep over many seeds.
type LineRateTrialsResult struct {
	Trials int
	Points []LineRatePointTrials
}

// LineRateExperimentTrials runs the line-rate sweep for trials seeds in
// parallel and reduces per frame-size point.
func LineRateExperimentTrials(rootSeed int64, trials, parallelism int) (LineRateTrialsResult, error) {
	return lineRateTrials(exp.RunContext{Seed: rootSeed, Trials: trials, Parallelism: parallelism})
}

func lineRateTrials(ctx exp.RunContext) (LineRateTrialsResult, error) {
	tr, err := exp.RunTrials(ctx, func(_ int, seed int64) (LineRateResult, error) {
		trial := ctx
		trial.Seed = seed
		return lineRateSingle(trial)
	})
	if err != nil {
		return LineRateTrialsResult{}, err
	}
	res := LineRateTrialsResult{Trials: tr.N()}
	for p := range tr.First().Points {
		res.Points = append(res.Points, LineRatePointTrials{
			Label:        tr.First().Points[p].Label,
			FrameSize:    tr.First().Points[p].FrameSize,
			OfferedPPS:   tr.Metric(func(r LineRateResult) float64 { return r.Points[p].OfferedPPS }),
			DeliveredPPS: tr.Metric(func(r LineRateResult) float64 { return r.Points[p].DeliveredPPS }),
			GoodputGbps:  tr.Metric(func(r LineRateResult) float64 { return r.Points[p].GoodputGbps }),
			Drops:        tr.Metric(func(r LineRateResult) float64 { return float64(r.Points[p].Drops) }),
			LineRateAll:  tr.All(func(r LineRateResult) bool { return r.Points[p].LineRate }),
		})
	}
	return res, nil
}

// Render formats the multi-seed sweep.
func (r LineRateTrialsResult) Render() string {
	t := exp.NewTable("Frames", "Offered (Mpps)", "Delivered (Mpps)", "Goodput (Gb/s)", "Line rate?")
	for _, p := range r.Points {
		ok := "yes"
		if !p.LineRateAll {
			ok = "NO"
		}
		t.Add(p.Label,
			fmt.Sprintf("%.3f ± %.3f", p.OfferedPPS.Mean/1e6, p.OfferedPPS.CI95()/1e6),
			fmt.Sprintf("%.3f ± %.3f", p.DeliveredPPS.Mean/1e6, p.DeliveredPPS.CI95()/1e6),
			fmt.Sprintf("%.3f ± %.3f", p.GoodputGbps.Mean, p.GoodputGbps.CI95()),
			ok)
	}
	return fmt.Sprintf("Line-rate verification (§5.1): NAT at 10 Gb/s, %d trials\n", r.Trials) + t.String()
}

// runLineRate is the registered entry point.
func runLineRate(ctx exp.RunContext) (exp.Result, error) {
	env := exp.Envelope{Name: "linerate", Params: ctx.Params()}
	if ctx.EffectiveTrials() > 1 {
		r, err := lineRateTrials(ctx)
		if err != nil {
			return nil, err
		}
		lineRateAll := 1.0
		for _, p := range r.Points {
			if !p.LineRateAll {
				lineRateAll = 0
			}
		}
		env.Detail = r
		env.Metrics = []exp.Metric{
			exp.Scalar("points", "", float64(len(r.Points))),
			exp.Scalar("line_rate_all", "bool", lineRateAll),
		}
		return exp.NewResult(env, r.Render), nil
	}
	r, err := lineRateSingle(ctx)
	if err != nil {
		return nil, err
	}
	lineRateAll, drops := 1.0, 0.0
	for _, p := range r.Points {
		if !p.LineRate {
			lineRateAll = 0
		}
		drops += float64(p.Drops)
	}
	env.Detail = r
	env.Metrics = []exp.Metric{
		exp.Scalar("points", "", float64(len(r.Points))),
		exp.Scalar("line_rate_all", "bool", lineRateAll),
		exp.Scalar("queue_drops", "", drops),
	}
	if ctx.Telemetry {
		// Fold the headline in-cable counters across the sweep into the
		// envelope: total frames and a frame-weighted mean latency.
		var frames, bytes uint64
		var latSum float64
		for _, p := range r.Points {
			if p.Telemetry == nil {
				continue
			}
			frames += p.Telemetry.FramesIn
			bytes += p.Telemetry.BytesIn
			latSum += p.Telemetry.MeanLatencyNs * float64(p.Telemetry.FramesIn)
		}
		env.Metrics = append(env.Metrics,
			exp.Scalar("telemetry_frames_in", "", float64(frames)),
			exp.Scalar("telemetry_bytes_in", "", float64(bytes)))
		if frames > 0 {
			env.Metrics = append(env.Metrics,
				exp.Scalar("telemetry_mean_latency", "ns", latSum/float64(frames)))
		}
	}
	return exp.NewResult(env, r.Render), nil
}
