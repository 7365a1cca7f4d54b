package flexsfp

// Benchmark harness: one benchmark per paper table/figure (see
// EXPERIMENTS.md for the experiment index) plus micro-benchmarks of the
// hot paths. Run:
//
//	go test -bench=. -benchmem
//
// or regenerate the human-readable tables with cmd/flexsfp-bench.

import (
	"encoding/json"
	"net/netip"
	"testing"

	"flexsfp/internal/apps"
	"flexsfp/internal/exp"
	"flexsfp/internal/exp/paper"
	"flexsfp/internal/hls"
	"flexsfp/internal/netsim"
	"flexsfp/internal/packet"
	"flexsfp/internal/ppe"
)

// --- Paper tables and figures ------------------------------------------------

// BenchmarkTable1NATSynthesis regenerates Table 1: synthesizing the NAT
// case study onto the MPF200T.
func BenchmarkTable1NATSynthesis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := paper.Table1()
		if r.Used.LSRAM != 164 {
			b.Fatal("Table 1 diverged")
		}
	}
}

// BenchmarkTable2FitCheck regenerates Table 2: normalizing literature
// designs and fit-checking them against the MPF200T.
func BenchmarkTable2FitCheck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := paper.Table2()
		if len(r.Rows) != 4 {
			b.Fatal("Table 2 diverged")
		}
	}
}

// BenchmarkTable3CostPower regenerates Table 3: ideal-scaled cost/power.
func BenchmarkTable3CostPower(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := paper.Table3()
		if r.Claims.CAPEXSavingVsDPU < 0.5 {
			b.Fatal("Table 3 diverged")
		}
	}
}

// BenchmarkPowerMeasurement regenerates the §5 power experiment
// (bidirectional line-rate stress + three-step measurement).
func BenchmarkPowerMeasurement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := paper.PowerExperiment(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		if r.Report.DeltaFlex < 1.4 {
			b.Fatal("power experiment diverged")
		}
	}
}

// BenchmarkNATLineRate regenerates the §5.1 line-rate verification across
// all frame sizes.
func BenchmarkNATLineRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := paper.LineRateExperiment(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range r.Points {
			if !p.LineRate {
				b.Fatalf("%s dropped at line rate", p.Label)
			}
		}
	}
}

// BenchmarkNATLineRateTelemetry runs the same §5.1 sweep with the
// in-cable metric registry, latency histograms, and gauges attached —
// the instrumented-vs-bare delta tracked in docs/BENCH_PR5.json. The
// instrumentation budget is < 5% over BenchmarkNATLineRate.
func BenchmarkNATLineRateTelemetry(b *testing.B) {
	e, ok := exp.Default.Lookup("linerate")
	if !ok {
		b.Fatal("linerate experiment not registered")
	}
	for i := 0; i < b.N; i++ {
		res, err := e.Run(exp.RunContext{Seed: int64(i + 1), Telemetry: true})
		if err != nil {
			b.Fatal(err)
		}
		env := res.Envelope()
		for _, m := range env.Metrics {
			if m.Name == "line_rate_all" && m.Mean != 1 {
				b.Fatal("dropped at line rate under instrumentation")
			}
		}
	}
}

// BenchmarkArchitectures regenerates the Figure 1 architecture
// comparison under bidirectional load.
func BenchmarkArchitectures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := paper.ArchitectureExperiment(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Points) != 5 {
			b.Fatal("architecture experiment diverged")
		}
	}
}

// BenchmarkScalability regenerates the §5.3 width×clock sweep.
func BenchmarkScalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := paper.ScalabilityExperiment(1)
		if len(r.Points) != 12 {
			b.Fatal("scalability sweep diverged")
		}
	}
}

// BenchmarkAccelerationGap regenerates the §2 host/SmartNIC/FlexSFP
// micro-task comparison.
func BenchmarkAccelerationGap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := paper.AccelerationGapExperiment(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Points) != 3 {
			b.Fatal("gap experiment diverged")
		}
	}
}

// BenchmarkReliability regenerates the §5.3 VCSEL fleet simulation.
func BenchmarkReliability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := paper.ReliabilityExperiment(int64(i + 1))
		if r.Report.Failures == 0 {
			b.Fatal("reliability experiment diverged")
		}
	}
}

// BenchmarkFormFactorScaling regenerates the §6 form-factor sweep.
func BenchmarkFormFactorScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := paper.FormFactorExperiment(1)
		if len(r.Plans) != 12 {
			b.Fatal("form-factor sweep diverged")
		}
	}
}

// --- Ablations ---------------------------------------------------------------

// BenchmarkAblationShellOverhead compares shell resource footprints — the
// §4.1 claim that Two-Way-Core growth is sublinear.
func BenchmarkAblationShellOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		one := hls.ShellResources(hls.OneWayFilter)
		two := hls.ShellResources(hls.TwoWayCore)
		if float64(two.LUT4) > 1.3*float64(one.LUT4) {
			b.Fatal("shell growth not sublinear")
		}
	}
}

// BenchmarkAblationTableSize sweeps the NAT table size and reports the
// LSRAM cost curve (the "promising potential for larger tables" note in
// §5.1).
func BenchmarkAblationTableSize(b *testing.B) {
	sizes := []int{4096, 8192, 16384, 32768, 65536}
	for i := 0; i < b.N; i++ {
		prev := 0
		for _, sz := range sizes {
			p := apps.NewNAT().Program()
			p.Tables[0].Size = sz
			r := hls.EstimateProgram(p, 64)
			if r.LSRAM <= prev {
				b.Fatal("LSRAM not monotone in table size")
			}
			prev = r.LSRAM
		}
	}
}

// --- Micro-benchmarks of the hot paths ----------------------------------------

var benchFrame = packet.MustBuild(packet.Spec{
	SrcMAC: packet.MustMAC("02:00:00:00:00:01"),
	DstMAC: packet.MustMAC("02:00:00:00:00:02"),
	SrcIP:  netip.MustParseAddr("10.1.0.1"),
	DstIP:  netip.MustParseAddr("10.2.0.1"),
	Proto:  packet.IPProtocolTCP, SrcPort: 1234, DstPort: 443,
	PadTo: 64,
})

// BenchmarkParserDecode measures the zero-copy layer parser.
func BenchmarkParserDecode(b *testing.B) {
	var eth packet.Ethernet
	var ip4 packet.IPv4
	var tcp packet.TCP
	p := packet.NewParser(packet.LayerTypeEthernet, &eth, &ip4, &tcp)
	decoded := make([]packet.LayerType, 0, 4)
	b.ReportAllocs()
	b.SetBytes(int64(len(benchFrame)))
	for i := 0; i < b.N; i++ {
		if err := p.DecodeLayers(benchFrame, &decoded); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNATHandler measures the NAT datapath handler in isolation.
func BenchmarkNATHandler(b *testing.B) {
	nat := apps.NewNAT()
	if err := nat.AddMapping(netip.MustParseAddr("10.1.0.1"), netip.MustParseAddr("203.0.113.1")); err != nil {
		b.Fatal(err)
	}
	h := nat.Program().Handler
	frame := append([]byte(nil), benchFrame...)
	ctx := &ppe.Ctx{Data: frame, Dir: ppe.DirEdgeToOptical}
	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	for i := 0; i < b.N; i++ {
		ctx.Data = frame
		if h.HandlePacket(ctx) != ppe.VerdictPass {
			b.Fatal("unexpected verdict")
		}
	}
}

// BenchmarkEngineSubmit measures the cycle-accounted engine end to end
// (submit → handler → verdict) under simulation.
func BenchmarkEngineSubmit(b *testing.B) {
	sim := netsim.New(1)
	e := ppe.NewEngine(sim, BaseClockHz, 64, nil)
	prog := apps.NewNAT().Program()
	if err := e.SetProgram(prog); err != nil {
		b.Fatal(err)
	}
	frame := append([]byte(nil), benchFrame...)
	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	for i := 0; i < b.N; i++ {
		e.Submit(frame, ppe.DirEdgeToOptical)
		sim.Run()
	}
}

// BenchmarkAppHandlers measures each catalog app's behavioral handler on
// a representative frame (simulation-side cost, one sub-benchmark per app).
func BenchmarkAppHandlers(b *testing.B) {
	configs := map[string]any{
		"nat":       apps.NATConfig{Mappings: []apps.NATMapping{{Internal: "10.1.0.1", External: "203.0.113.1"}}},
		"acl":       apps.ACLConfig{Rules: []apps.ACLRule{{DstPort: 22, Proto: 6, Deny: true, Priority: 1}}},
		"vlan":      apps.VLANConfig{VLAN: 100},
		"tunnel":    apps.TunnelConfig{Mode: "gre", LocalIP: "10.255.0.1", RemoteIP: "10.255.0.2", LocalMAC: "02:aa:aa:aa:aa:01", GatewayMAC: "02:aa:aa:aa:aa:02"},
		"lb":        apps.LBConfig{VIP: "10.2.0.1", Backends: []apps.LBBackend{{IP: "10.0.1.1", MAC: "02:be:00:00:00:01"}}},
		"telemetry": apps.TelemetryConfig{Role: "source", DeviceID: 1},
		"netflow":   apps.NetFlowConfig{},
		"ratelimit": apps.RateLimitConfig{DefaultRateBps: 1e12, DefaultBurstBits: 1e9},
		"dohblock":  apps.DoHBlockConfig{BlockedDomains: []string{"x.example"}},
		"sanitize":  apps.SanitizeConfig{VerifyChecksums: true},
		"monitor":   apps.MonitorConfig{},
	}
	registry := apps.NewRegistry()
	for _, name := range []string{"nat", "acl", "vlan", "tunnel", "lb", "telemetry",
		"netflow", "ratelimit", "dohblock", "sanitize", "monitor"} {
		b.Run(name, func(b *testing.B) {
			app, err := registry.New(name)
			if err != nil {
				b.Fatal(err)
			}
			cfg, _ := json.Marshal(configs[name])
			if err := app.Configure(cfg); err != nil {
				b.Fatal(err)
			}
			h := app.Program().Handler
			frame := append([]byte(nil), benchFrame...)
			ctx := &ppe.Ctx{Data: frame, Dir: ppe.DirEdgeToOptical}
			b.ReportAllocs()
			b.SetBytes(int64(len(frame)))
			for i := 0; i < b.N; i++ {
				ctx.Data = frame
				ctx.TimestampNs = uint64(i) * 100
				h.HandlePacket(ctx)
			}
		})
	}
}

// BenchmarkTableLookup measures the exact-match table.
func BenchmarkTableLookup(b *testing.B) {
	tab := ppe.NewTable(ppe.TableSpec{Name: "t", KeyBits: 32, ValueBits: 32, Size: 32768})
	var keys [][]byte
	for i := 0; i < 1024; i++ {
		k := []byte{10, 0, byte(i >> 8), byte(i)}
		if err := tab.Add(k, []byte{1, 2, 3, 4}); err != nil {
			b.Fatal(err)
		}
		keys = append(keys, k)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := tab.Lookup(keys[i%len(keys)]); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkTernaryLookup measures the 64-entry register TCAM.
func BenchmarkTernaryLookup(b *testing.B) {
	tab := ppe.NewTernaryTable(ppe.TableSpec{Name: "acl", Kind: ppe.TableTernary, KeyBits: 104, ValueBits: 8, Size: 64})
	key := make([]byte, 13)
	for i := 0; i < 64; i++ {
		v := make([]byte, 13)
		m := make([]byte, 13)
		v[0], m[0] = byte(i), 0xff
		if err := tab.Add(ppe.TernaryEntry{Value: v, Mask: m, Priority: i, Data: []byte{1}}); err != nil {
			b.Fatal(err)
		}
	}
	key[0] = 63 // worst case: matches the lowest-priority entry
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab.Lookup(key)
	}
}

// BenchmarkSerializeTCP measures full-stack serialization with checksums.
func BenchmarkSerializeTCP(b *testing.B) {
	src := netip.MustParseAddr("10.0.0.1")
	dst := netip.MustParseAddr("10.0.0.2")
	eth := &packet.Ethernet{EtherType: packet.EtherTypeIPv4}
	ip := &packet.IPv4{TTL: 64, Protocol: packet.IPProtocolTCP, SrcIP: src, DstIP: dst}
	tcp := &packet.TCP{SrcPort: 1, DstPort: 2, Window: 1000}
	if err := tcp.SetNetworkLayerForChecksum(src, dst); err != nil {
		b.Fatal(err)
	}
	pl := packet.Payload(make([]byte, 64))
	buf := packet.NewSerializeBuffer()
	opts := packet.SerializeOptions{FixLengths: true, ComputeChecksums: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := packet.SerializeLayers(buf, opts, eth, ip, tcp, &pl); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFlowFastHash measures the symmetric flow hash used for
// load-balancer steering.
func BenchmarkFlowFastHash(b *testing.B) {
	f := packet.Flow{
		Proto: packet.IPProtocolTCP,
		Src:   packet.Endpoint{IP: netip.MustParseAddr("10.0.0.1"), Port: 1234},
		Dst:   packet.Endpoint{IP: netip.MustParseAddr("10.0.0.2"), Port: 443},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if f.FastHash() == 0 {
			b.Fatal("zero hash")
		}
	}
}

// BenchmarkChecksum measures the Internet checksum over an MTU payload.
func BenchmarkChecksum(b *testing.B) {
	data := make([]byte, 1500)
	b.SetBytes(1500)
	for i := 0; i < b.N; i++ {
		packet.Checksum(data)
	}
}

// BenchmarkLatencyOverhead regenerates the §6 latency-overhead sweep.
func BenchmarkLatencyOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := paper.LatencyOverheadExperiment()
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Points) != 5 {
			b.Fatal("latency sweep diverged")
		}
	}
}

// BenchmarkAblationINTOverhead quantifies the telemetry tax: the INT shim
// adds 4 + 16×hops bytes per instrumented frame, so goodput overhead
// falls with frame size and with source-side sampling — the §3 claim
// that in-band telemetry comes "without incurring high overhead".
func BenchmarkAblationINTOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, hops := range []int{1, 3, 5, 15} {
			shim := 4 + packet.INTHopSize*hops
			for _, size := range []int{64, 594, 1518} {
				overhead := float64(shim) / float64(size+shim)
				if overhead <= 0 || overhead >= 1 {
					b.Fatal("overhead out of range")
				}
				// Even the maximal shim on an IMIX mean frame stays under
				// 30%; at MTU it is under 14%.
				if size == 1518 && overhead > 0.14 {
					b.Fatalf("MTU overhead %.3f too high", overhead)
				}
				// 1-in-8 sampling cuts the effective tax below 2% at MTU.
				sampled := overhead / 8
				if size == 1518 && sampled > 0.02 {
					b.Fatalf("sampled overhead %.3f", sampled)
				}
			}
		}
	}
}

// BenchmarkRetrofitEconomics regenerates the §2.1 upgrade comparison.
func BenchmarkRetrofitEconomics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := paper.RetrofitEconomicsExperiment()
		if err != nil {
			b.Fatal(err)
		}
		if !r.SpotCheckEnforced {
			b.Fatal("retrofit spot check failed")
		}
	}
}
