package flexsfp

import (
	"math"
	"net/netip"
	"strings"
	"testing"

	"flexsfp/internal/apps"
	"flexsfp/internal/exp/paper"
	"flexsfp/internal/hls"
	"flexsfp/internal/netsim"
	"flexsfp/internal/packet"
)

func TestBuildModuleQuickstart(t *testing.T) {
	sim := NewSim(1)
	mod, design, err := BuildModule(sim, ModuleSpec{
		Name: "sfp-0", DeviceID: 42, Shell: TwoWayCore, App: "nat",
		Config: apps.NATConfig{Mappings: []apps.NATMapping{
			{Internal: "192.168.1.10", External: "203.0.113.10"},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !mod.Running() {
		t.Fatal("module not running")
	}
	if design.Target.Name != "MPF200T" || !design.Fit.Fits {
		t.Errorf("design = %+v", design.Fit)
	}
	// Pass one packet through and verify translation.
	var out []byte
	mod.SetTx(1, func(b []byte) { out = b })
	frame := packet.MustBuild(packet.Spec{
		SrcMAC: packet.MustMAC("02:00:00:00:00:01"),
		DstMAC: packet.MustMAC("02:00:00:00:00:02"),
		SrcIP:  mustAddr("192.168.1.10"), DstIP: mustAddr("198.51.100.1"),
		SrcPort: 1234, DstPort: 80, PadTo: 64,
	})
	mod.RxEdge(frame)
	sim.Run()
	if out == nil {
		t.Fatal("no egress frame")
	}
	pkt := packet.NewPacket(out, packet.LayerTypeEthernet)
	ip := pkt.Layer(packet.LayerTypeIPv4).(*packet.IPv4)
	if ip.SrcIP.String() != "203.0.113.10" {
		t.Errorf("translated src = %v", ip.SrcIP)
	}
}

func TestBuildModuleErrors(t *testing.T) {
	sim := NewSim(1)
	if _, _, err := BuildModule(sim, ModuleSpec{Name: "x"}); err == nil {
		t.Error("missing app accepted")
	}
	if _, _, err := BuildModule(sim, ModuleSpec{App: "unknown-app"}); err == nil {
		t.Error("unknown app accepted")
	}
	// App that requires config must fail without it.
	if _, _, err := BuildModule(sim, ModuleSpec{App: "vlan"}); err == nil {
		t.Error("vlan app booted without config")
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	r := paper.Table1()
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Memory columns exact; logic within 1%.
	if r.Used.USRAM != 278 || r.Used.LSRAM != 164 {
		t.Errorf("Used memory = %d uSRAM / %d LSRAM, want 278/164", r.Used.USRAM, r.Used.LSRAM)
	}
	for _, pair := range []struct{ got, want int }{
		{r.Used.LUT4, 31455}, {r.Used.FF, 25518},
	} {
		diff := math.Abs(float64(pair.got - pair.want))
		if diff > float64(pair.want)*0.01 {
			t.Errorf("Used logic %d vs paper %d", pair.got, pair.want)
		}
	}
	// Percentages as printed: 16/13/15/26 (truncated).
	if int(r.Util.LUT4) != 16 || int(r.Util.FF) != 13 || int(r.Util.USRAM) != 15 || int(r.Util.LSRAM) != 26 {
		t.Errorf("util = %+v", r.Util)
	}
	if !strings.Contains(r.Render(), "NAT app") {
		t.Error("render missing NAT app row")
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	r := paper.Table2()
	fits := map[string]bool{}
	for _, row := range r.Rows {
		fits[row.Name] = row.Fits
	}
	if fits["hXDP (1 core)"] != true {
		t.Error("hXDP should fit the MPF200T")
	}
	for _, name := range []string{"FlowBlaze (1 stage)", "Pigasus", "ClickNP IPSec GW"} {
		if fits[name] {
			t.Errorf("%s should not fit", name)
		}
	}
	out := r.Render()
	for _, want := range []string{"115k", "416k", "110k", "388k", "13300"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTable3MatchesPaper(t *testing.T) {
	r := paper.Table3()
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if r.Claims.CAPEXSavingVsDPU < 0.6 {
		t.Errorf("CAPEX saving = %.2f", r.Claims.CAPEXSavingVsDPU)
	}
	if r.BOMLow < 250 || r.BOMHigh > 320 {
		t.Errorf("BOM band = %.0f-%.0f", r.BOMLow, r.BOMHigh)
	}
	if !strings.Contains(r.Render(), "FlexSFP") {
		t.Error("render missing FlexSFP row")
	}
}

func TestPowerExperimentMatchesPaper(t *testing.T) {
	r, err := paper.PowerExperiment(7)
	if err != nil {
		t.Fatal(err)
	}
	// Stress saturates the pipeline; dynamic power at full utilization.
	if r.FlexUtilization < 0.95 {
		t.Errorf("utilization = %.2f under 2x overload", r.FlexUtilization)
	}
	check := func(name string, got, want, tol float64) {
		t.Helper()
		if math.Abs(got-want) > tol {
			t.Errorf("%s = %.3f, want %.3f ±%.3f", name, got, want, tol)
		}
	}
	check("NIC only", r.Report.NICOnly.MeanW, 3.800, 0.005)
	check("NIC+SFP", r.Report.WithSFP.MeanW, 4.693, 0.005)
	check("NIC+FlexSFP", r.Report.WithFlex.MeanW, 5.320, 0.02)
	check("delta SFP", r.Report.DeltaSFP, 0.893, 0.01)
	check("delta Flex", r.Report.DeltaFlex, 1.52, 0.02)
}

func TestLineRateExperimentAllSizes(t *testing.T) {
	r, err := paper.LineRateExperiment(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 7 {
		t.Fatalf("points = %d", len(r.Points))
	}
	for _, p := range r.Points {
		if !p.LineRate {
			t.Errorf("%s: %d drops at line rate", p.Label, p.Drops)
		}
		if p.DeliveredPPS < p.OfferedPPS*0.995 {
			t.Errorf("%s: delivered %.0f of %.0f pps", p.Label, p.DeliveredPPS, p.OfferedPPS)
		}
	}
	// 64B point ≈ 14.88 Mpps.
	if p := r.Points[0]; math.Abs(p.DeliveredPPS-14.88e6)/14.88e6 > 0.01 {
		t.Errorf("64B delivered = %.0f pps", p.DeliveredPPS)
	}
	// 1518B goodput just under 10G.
	last := r.Points[5]
	if last.GoodputGbps < 9.7 || last.GoodputGbps > 10.0 {
		t.Errorf("1518B goodput = %.2f Gb/s", last.GoodputGbps)
	}
}

func TestArchitectureExperimentShape(t *testing.T) {
	r, err := paper.ArchitectureExperiment(5)
	if err != nil {
		t.Fatal(err)
	}
	byKey := func(shell hls.Shell, clock float64, bidir bool) paper.ArchPoint {
		for _, p := range r.Points {
			if p.Shell == shell && p.ClockMHz == clock && p.Bidirectional == bidir {
				return p
			}
		}
		t.Fatalf("missing point %v/%v/%v", shell, clock, bidir)
		return paper.ArchPoint{}
	}
	// One-way traffic at base clock: full delivery, both shells.
	if p := byKey(hls.OneWayFilter, 156.25, false); p.DeliveredFrac < 0.995 {
		t.Errorf("one-way-filter one-way delivered %.3f", p.DeliveredFrac)
	}
	if p := byKey(hls.TwoWayCore, 156.25, false); p.DeliveredFrac < 0.995 {
		t.Errorf("two-way-core one-way delivered %.3f", p.DeliveredFrac)
	}
	// One-Way-Filter under bidirectional load: everything delivered, but
	// only half via the PPE.
	owf := byKey(hls.OneWayFilter, 156.25, true)
	if owf.DeliveredFrac < 0.995 {
		t.Errorf("one-way-filter bidir delivered %.3f", owf.DeliveredFrac)
	}
	if owf.PPEFrac > 0.55 || owf.PPEFrac < 0.45 {
		t.Errorf("one-way-filter PPE fraction = %.3f, want ≈0.5", owf.PPEFrac)
	}
	// Two-Way-Core at base clock saturates under bidirectional load...
	sat := byKey(hls.TwoWayCore, 156.25, true)
	if sat.DeliveredFrac > 0.75 {
		t.Errorf("two-way-core bidir at 156.25 delivered %.3f, expected saturation", sat.DeliveredFrac)
	}
	// ...and recovers at double clock (§4.1's mitigation).
	fast := byKey(hls.TwoWayCore, 312.5, true)
	if fast.DeliveredFrac < 0.995 {
		t.Errorf("two-way-core bidir at 312.5 delivered %.3f", fast.DeliveredFrac)
	}
	// Double clock still inside the thermal envelope.
	if fast.PeakW > 3.0 {
		t.Errorf("312.5 MHz peak power = %.2f W", fast.PeakW)
	}
}

func TestScalabilityExperimentShape(t *testing.T) {
	r := paper.ScalabilityExperiment(1)
	if len(r.Points) != 12 {
		t.Fatalf("points = %d", len(r.Points))
	}
	find := func(w int, mhz float64) paper.ScalePoint {
		for _, p := range r.Points {
			if p.DatapathBits == w && p.ClockMHz == mhz {
				return p
			}
		}
		t.Fatalf("missing %d/%v", w, mhz)
		return paper.ScalePoint{}
	}
	// The prototype point sustains 10G inside the envelope; the smallest
	// fitting part is at or below the prototype's MPF200T (headroom).
	base := find(64, 156.25)
	if base.Supports < 10 || !base.TimingOK || !base.Thermal {
		t.Errorf("base point = %+v", base)
	}
	if base.Device != "MPF100T" && base.Device != "MPF200T" {
		t.Errorf("base device = %s", base.Device)
	}
	// 512b @ 400 MHz reaches 100G but blows the SFP+ power envelope —
	// §5.3's point that higher rates need bigger form factors.
	big := find(512, 400)
	if big.Supports < 100 {
		t.Errorf("512b@400MHz sustains only %dG", big.Supports)
	}
	if big.Thermal {
		t.Error("100G-class point reported inside SFP+ envelope")
	}
	// Capacity is monotone in width at fixed clock.
	if find(128, 156.25).CapacityGbps <= find(64, 156.25).CapacityGbps {
		t.Error("capacity not monotone in width")
	}
}

func TestAccelerationGapShape(t *testing.T) {
	r, err := paper.AccelerationGapExperiment(9)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 3 {
		t.Fatalf("points = %d", len(r.Points))
	}
	var host, nic, flex paper.GapPoint
	for _, p := range r.Points {
		switch p.Path {
		case "host-cpu":
			host = p
		case "smartnic-dpu":
			nic = p
		case "flexsfp":
			flex = p
		}
	}
	// FlexSFP: lowest latency and power by far.
	if flex.P50 >= nic.P50 || flex.P50 >= host.P50 {
		t.Errorf("flex p50 %v not the lowest (nic %v, host %v)", flex.P50, nic.P50, host.P50)
	}
	if flex.PowerW >= nic.PowerW/10 {
		t.Errorf("flex power %.1f W vs nic %.1f W: not order-of-magnitude", flex.PowerW, nic.PowerW)
	}
	// Host: worst tail (p99/p50 ratio largest).
	hostTail := float64(host.P99) / float64(host.P50)
	nicTail := float64(nic.P99) / float64(nic.P50)
	if hostTail <= nicTail {
		t.Errorf("host tail %.2f not worse than nic %.2f", hostTail, nicTail)
	}
	// All three sustain the offered 1 Mpps.
	for _, p := range r.Points {
		if p.Throughput < r.OfferedPPS*0.95 {
			t.Errorf("%s delivered %.0f of %.0f pps", p.Path, p.Throughput, r.OfferedPPS)
		}
	}
	// Cost ordering: flex < nic.
	if flex.CostUSD >= nic.CostUSD {
		t.Error("flex not cheaper than smartnic")
	}
}

func TestReliabilityExperiment(t *testing.T) {
	r := paper.ReliabilityExperiment(11)
	if r.Report.Failures == 0 {
		t.Fatal("no failures in 10-year horizon")
	}
	if float64(r.Report.DetectedEarly)/float64(r.Report.Failures) < 0.9 {
		t.Error("DDM early detection below 90%")
	}
	if r.Report.LaserRepairSavingFrac < 0.7 {
		t.Errorf("laser repair saving = %.2f", r.Report.LaserRepairSavingFrac)
	}
	if !strings.Contains(r.Render(), "Laser-repair saving") {
		t.Error("render incomplete")
	}
}

func TestAllRendersNonEmpty(t *testing.T) {
	if paper.Table1().Render() == "" || paper.Table2().Render() == "" || paper.Table3().Render() == "" {
		t.Error("empty render")
	}
	s := paper.ScalabilityExperiment(1).Render()
	if !strings.Contains(s, "512b") {
		t.Error("scalability render missing width rows")
	}
}

func mustAddr(s string) netip.Addr { return netip.MustParseAddr(s) }

var _ = netsim.Second // imported for duration literals in future tests

func TestLatencyOverheadExperiment(t *testing.T) {
	r, err := paper.LatencyOverheadExperiment()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 5 {
		t.Fatalf("points = %d", len(r.Points))
	}
	for i, p := range r.Points {
		if p.Added <= 0 {
			t.Errorf("%dB: added latency %v not positive", p.FrameSize, p.Added)
		}
		// Sub-2µs even at MTU: cheap vs a host detour.
		if p.Added > 2*netsim.Microsecond {
			t.Errorf("%dB: added latency %v too high", p.FrameSize, p.Added)
		}
		if i > 0 && p.Added <= r.Points[i-1].Added {
			t.Error("store-and-forward latency not monotone in size")
		}
	}
}

func TestRetrofitEconomicsExperiment(t *testing.T) {
	r, err := paper.RetrofitEconomicsExperiment()
	if err != nil {
		t.Fatal(err)
	}
	if !r.SpotCheckEnforced {
		t.Error("retrofitted switch did not enforce per-port policy")
	}
	var flex, nic paper.RetrofitOption
	for _, o := range r.Options {
		switch o.Name {
		case "FlexSFP per port":
			flex = o
		case "SmartNIC per attached host":
			nic = o
		}
	}
	// §2.1's claims: cheapest per-port path, drop-in, order-of-magnitude
	// power advantage over SmartNICs.
	if flex.Disruptive || !flex.PerPort {
		t.Errorf("flex option = %+v", flex)
	}
	if flex.CapexUSD >= nic.CapexUSD/5 {
		t.Errorf("flex CAPEX %.0f not << SmartNIC %.0f", flex.CapexUSD, nic.CapexUSD)
	}
	if flex.AddedPowerW >= nic.AddedPowerW/10 {
		t.Errorf("flex power %.0f not order-of-magnitude below SmartNIC %.0f",
			flex.AddedPowerW, nic.AddedPowerW)
	}
	for _, o := range r.Options {
		if o.Name != "FlexSFP per port" && !o.Disruptive && o.PerPort {
			t.Errorf("%s also claims drop-in per-port: the gap closed", o.Name)
		}
	}
}
