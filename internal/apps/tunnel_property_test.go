package apps

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math/rand"
	"net/netip"
	"testing"

	"flexsfp/internal/packet"
	"flexsfp/internal/ppe"
)

// Encap overhead per mode (bytes added to the inner frame), with the
// canonical test config (GRE key present).
func tunnelOverhead(mode string) int {
	switch mode {
	case TunnelGRE:
		return 14 + 20 + 8 // eth + outer IPv4 + GRE(base+key)
	case TunnelVXLAN:
		return 14 + 20 + 8 + 8 // eth + outer IPv4 + UDP + VXLAN
	case TunnelIPIP:
		return 20 // outer IPv4 replaces nothing; inner eth dropped
	}
	return 0
}

// randomInnerFrame builds a random-but-valid IPv4/UDP frame (valid so
// the IPIP mode, which parses the inner packet, accepts it too).
func randomInnerFrame(rng *rand.Rand) []byte {
	payload := make([]byte, rng.Intn(400))
	rng.Read(payload)
	return packet.MustBuild(packet.Spec{
		SrcMAC: macHost, DstMAC: macGW,
		SrcIP:   netip.AddrFrom4([4]byte{10, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(1 + rng.Intn(254))}),
		DstIP:   netip.AddrFrom4([4]byte{172, 16, byte(rng.Intn(256)), byte(1 + rng.Intn(254))}),
		SrcPort: uint16(1 + rng.Intn(65535)), DstPort: uint16(1 + rng.Intn(65535)),
		TTL: uint8(1 + rng.Intn(255)), Payload: payload,
	})
}

// Property: for random frames across all three modes, the encapped frame
// parses as a well-formed outer header (correct lengths and checksums,
// correct endpoint addressing), and decap at the remote restores the
// inner frame byte-for-byte.
func TestTunnelRoundTripProperty(t *testing.T) {
	for _, mode := range []string{TunnelGRE, TunnelVXLAN, TunnelIPIP} {
		t.Run(mode, func(t *testing.T) {
			a := NewTunnel()
			if err := a.Configure(mustJSON(t, tunnelConfig(mode))); err != nil {
				t.Fatal(err)
			}
			b := NewTunnel()
			cfg := tunnelConfig(mode)
			cfg.LocalIP, cfg.RemoteIP = cfg.RemoteIP, cfg.LocalIP
			// For IPIP the decap side re-wraps the inner IP packet in its
			// own edge Ethernet header; aligning it with the generator's
			// MACs makes the round trip a byte-level identity there too.
			cfg.LocalMAC, cfg.GatewayMAC = macHost.String(), macGW.String()
			if err := b.Configure(mustJSON(t, cfg)); err != nil {
				t.Fatal(err)
			}

			rng := rand.New(rand.NewSource(0xf1e2))
			for i := 0; i < 300; i++ {
				inner := randomInnerFrame(rng)
				v, encapped := run(a.prog.Handler, inner, ppe.DirEdgeToOptical)
				if v != ppe.VerdictPass {
					t.Fatalf("frame %d: encap verdict %v", i, v)
				}
				if got, want := len(encapped), len(inner)+tunnelOverhead(mode); got != want {
					t.Fatalf("frame %d: encapped %dB, want %dB", i, got, want)
				}

				// The outer headers must parse — with the zero-alloc View
				// and the full decoder — and carry fixed-up lengths.
				var view packet.View
				if !view.Parse(encapped) || !view.IsIPv4 {
					t.Fatalf("frame %d: View rejects encapped frame", i)
				}
				if got := netip.AddrFrom4([4]byte(view.DstIPv4())); got != netip.MustParseAddr("10.255.0.2") {
					t.Fatalf("frame %d: outer dst %v", i, got)
				}
				totalLen := int(binary.BigEndian.Uint16(encapped[view.L3Off+2:]))
				if totalLen != len(encapped)-14 {
					t.Fatalf("frame %d: outer IPv4 length %d, frame %d", i, totalLen, len(encapped)-14)
				}
				var eth packet.Ethernet
				if err := eth.DecodeFromBytes(encapped); err != nil {
					t.Fatal(err)
				}
				if !packet.VerifyIPv4Checksum(eth.LayerPayload()) {
					t.Fatalf("frame %d: outer IPv4 checksum invalid", i)
				}
				if mode == TunnelVXLAN && view.DstPort != packet.PortVXLAN {
					t.Fatalf("frame %d: outer dport %d", i, view.DstPort)
				}
				if pkt := packet.NewPacket(encapped, packet.LayerTypeEthernet); pkt.ErrorLayer() != nil {
					t.Fatalf("frame %d: decoder rejects encapped frame: %v", i, pkt.ErrorLayer())
				}

				// decap(encap(f)) == f. Copy first: the ring cell behind
				// encapped is owned by a, not b.
				wire := append([]byte(nil), encapped...)
				v, decapped := run(b.prog.Handler, wire, ppe.DirOpticalToEdge)
				if v != ppe.VerdictPass {
					t.Fatalf("frame %d: decap verdict %v", i, v)
				}
				if !bytes.Equal(decapped, inner) {
					t.Fatalf("frame %d: round trip corrupted (%dB → %dB)", i, len(inner), len(decapped))
				}
			}
			if n, _ := a.ctr.Read(TunnelEncapped); n != 300 {
				t.Errorf("encapped counter = %d", n)
			}
			if n, _ := b.ctr.Read(TunnelDecapped); n != 300 {
				t.Errorf("decapped counter = %d", n)
			}
		})
	}
}

// The handler hot path must not allocate: encap and decap for every
// mode, pinned with AllocsPerRun.
func TestTunnelHandlerZeroAlloc(t *testing.T) {
	for _, mode := range []string{TunnelGRE, TunnelVXLAN, TunnelIPIP} {
		a := NewTunnel()
		if err := a.Configure(mustJSON(t, tunnelConfig(mode))); err != nil {
			t.Fatal(err)
		}
		inner := udpFrame(t, ipInt, ipSrv, 7, 8)
		_, encapped := run(a.prog.Handler, inner, ppe.DirEdgeToOptical)

		b := NewTunnel()
		cfg := tunnelConfig(mode)
		cfg.LocalIP, cfg.RemoteIP = cfg.RemoteIP, cfg.LocalIP
		if err := b.Configure(mustJSON(t, cfg)); err != nil {
			t.Fatal(err)
		}
		wire := append([]byte(nil), encapped...)

		ctx := &ppe.Ctx{Dir: ppe.DirEdgeToOptical, TimestampNs: 1}
		if n := testing.AllocsPerRun(200, func() {
			ctx.Data = inner
			a.prog.Handler.HandlePacket(ctx)
		}); n != 0 {
			t.Errorf("%s encap: %.1f allocs/op, want 0", mode, n)
		}
		ctx = &ppe.Ctx{Dir: ppe.DirOpticalToEdge, TimestampNs: 1}
		if n := testing.AllocsPerRun(200, func() {
			ctx.Data = wire
			b.prog.Handler.HandlePacket(ctx)
		}); n != 0 {
			t.Errorf("%s decap: %.1f allocs/op, want 0", mode, n)
		}
	}
}

// Regression for the TunnelTooBig accounting fix: the counter records the
// would-be encapped size (inner + overhead), not the inner size, for a
// pair of frames straddling the MTU boundary.
func TestTunnelTooBigRecordsEncappedSize(t *testing.T) {
	a := NewTunnel()
	cfg := tunnelConfig(TunnelGRE) // overhead 42 with key
	cfg.MTU = 1000
	if err := a.Configure(mustJSON(t, cfg)); err != nil {
		t.Fatal(err)
	}
	overhead := tunnelOverhead(TunnelGRE)

	// Inner size that encapsulates to exactly the MTU: must pass.
	fits := packet.MustBuild(packet.Spec{
		SrcMAC: macHost, DstMAC: macGW, SrcIP: ipInt, DstIP: ipSrv,
		SrcPort: 1, DstPort: 2, PadTo: cfg.MTU - overhead,
	})
	if v, out := run(a.prog.Handler, fits, ppe.DirEdgeToOptical); v != ppe.VerdictPass || len(out) != cfg.MTU {
		t.Fatalf("boundary frame: verdict %v, %dB", v, len(out))
	}

	// One byte more: dropped, and the counter must record the encapped
	// size (MTU+1), not the pre-encap inner size.
	over := packet.MustBuild(packet.Spec{
		SrcMAC: macHost, DstMAC: macGW, SrcIP: ipInt, DstIP: ipSrv,
		SrcPort: 1, DstPort: 2, PadTo: cfg.MTU - overhead + 1,
	})
	if v, _ := run(a.prog.Handler, over, ppe.DirEdgeToOptical); v != ppe.VerdictDrop {
		t.Fatal("over-MTU frame passed")
	}
	pkts, nBytes := a.ctr.Read(TunnelTooBig)
	if pkts != 1 {
		t.Fatalf("too-big packets = %d", pkts)
	}
	if want := uint64(cfg.MTU + 1); nBytes != want {
		t.Errorf("too-big bytes = %d, want %d (the would-be encapped size; %d would be the old pre-encap bug)",
			nBytes, want, len(over))
	}
}

// encapGREFrame / encapVXLANFrame build valid wire frames addressed to
// the canonical decap endpoint (10.255.0.1), for corruption vectors and
// fuzz seeds. No *testing.T so the fuzz seed phase can use them.
func encapTunnelFrame(mode string) []byte {
	a := NewTunnel()
	cfgJSON, _ := json.Marshal(tunnelConfig(mode))
	if err := a.Configure(cfgJSON); err != nil {
		panic(err)
	}
	inner := packet.MustBuild(packet.Spec{
		SrcMAC: macHost, DstMAC: macGW,
		SrcIP: netip.MustParseAddr("192.168.1.10"), DstIP: netip.MustParseAddr("198.51.100.5"),
		SrcPort: 7, DstPort: 8, PadTo: 96,
	})
	ctx := &ppe.Ctx{Data: inner, Dir: ppe.DirEdgeToOptical}
	if a.prog.Handler.HandlePacket(ctx) != ppe.VerdictPass {
		panic("encap failed")
	}
	out := append([]byte(nil), ctx.Data...)
	// Swap outer src/dst so the frame is addressed TO 10.255.0.1, i.e.
	// what the canonical config's decap side receives.
	var v packet.View
	v.Parse(out)
	src := append([]byte(nil), out[v.L3Off+12:v.L3Off+16]...)
	copy(out[v.L3Off+12:v.L3Off+16], out[v.L3Off+16:v.L3Off+20])
	copy(out[v.L3Off+16:v.L3Off+20], src)
	fixIPv4Checksum(out, v.L3Off, v.IPv4HeaderLen())
	return out
}

func fixIPv4Checksum(frame []byte, l3Off, hdrLen int) {
	frame[l3Off+10], frame[l3Off+11] = 0, 0
	var sum uint32
	for i := 0; i < hdrLen; i += 2 {
		sum += uint32(binary.BigEndian.Uint16(frame[l3Off+i:]))
	}
	for sum > 0xffff {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	binary.BigEndian.PutUint16(frame[l3Off+10:], ^uint16(sum))
}

// Malformed outer headers that claim this endpoint's tunnel must be
// dropped into TunnelErrors — never silently forwarded, never counted
// as decapped.
func TestTunnelDecapMalformedVectors(t *testing.T) {
	const l4 = 34 // eth(14) + outer IPv4(20), no options in our frames
	vectors := []struct {
		name    string
		mode    string
		corrupt func([]byte) []byte
	}{
		{"gre/truncated-to-flags", TunnelGRE, func(f []byte) []byte {
			out := f[:l4+2]
			binary.BigEndian.PutUint16(out[16:], uint16(len(out)-14))
			fixIPv4Checksum(out, 14, 20)
			return out
		}},
		{"gre/nonzero-version-bits", TunnelGRE, func(f []byte) []byte {
			f[l4+1] |= 0x07
			return f
		}},
		{"gre/unknown-inner-protocol", TunnelGRE, func(f []byte) []byte {
			binary.BigEndian.PutUint16(f[l4+2:], 0x1234)
			return f
		}},
		{"gre/wrong-key", TunnelGRE, func(f []byte) []byte {
			binary.BigEndian.PutUint32(f[l4+4:], 100) // configured key is 99
			return f
		}},
		{"vxlan/i-flag-clear", TunnelVXLAN, func(f []byte) []byte {
			f[l4+8] &^= 0x08
			return f
		}},
		{"vxlan/truncated-header", TunnelVXLAN, func(f []byte) []byte {
			out := f[:l4+12] // UDP + 4 of the 8 VXLAN bytes
			binary.BigEndian.PutUint16(out[16:], uint16(len(out)-14))
			fixIPv4Checksum(out, 14, 20)
			return out
		}},
	}
	for _, vec := range vectors {
		t.Run(vec.name, func(t *testing.T) {
			b := NewTunnel()
			cfg := tunnelConfig(vec.mode) // LocalIP 10.255.0.1 = frame's dst
			if err := b.Configure(mustJSON(t, cfg)); err != nil {
				t.Fatal(err)
			}
			frame := vec.corrupt(encapTunnelFrame(vec.mode))
			v, _ := run(b.prog.Handler, frame, ppe.DirOpticalToEdge)
			if v != ppe.VerdictDrop {
				t.Fatalf("verdict = %v, want Drop", v)
			}
			if n, _ := b.ctr.Read(TunnelErrors); n != 1 {
				t.Errorf("TunnelErrors = %d, want 1", n)
			}
			if n, _ := b.ctr.Read(TunnelDecapped); n != 0 {
				t.Errorf("TunnelDecapped = %d, want 0", n)
			}
		})
	}
}

// greWrongKeyFrame is a well-formed GRE frame for the canonical decap
// endpoint whose key (100) differs from the configured one (99).
func greWrongKeyFrame() []byte {
	f := encapTunnelFrame(TunnelGRE)
	binary.BigEndian.PutUint32(f[34+4:], 100)
	return f
}

// FuzzOverlayDecap throws arbitrary wire bytes at the optical-to-edge
// decap path of both overlay datapaths (the point tunnel and the mesh):
// malformed outer headers must never panic, and every frame must land in
// exactly one counter, with drops accounted as errors — never as
// decapped traffic. The two apps share one decap classifier, so with the
// same receive endpoint (10.255.0.1, same mode, VNI 7777, GRE key 99)
// they must also agree on the verdict, the counter class and the
// decapped bytes.
func FuzzOverlayDecap(f *testing.F) {
	for _, mode := range []string{TunnelGRE, TunnelVXLAN} {
		valid := encapTunnelFrame(mode)
		f.Add(uint8(0), valid)
		f.Add(uint8(1), valid[:len(valid)-7])
		short := append([]byte(nil), valid[:40]...)
		f.Add(uint8(2), short)
		flipped := append([]byte(nil), valid...)
		flipped[35] ^= 0x80 // GRE flag / VXLAN length territory
		f.Add(uint8(0), flipped)
	}
	f.Add(uint8(2), []byte{0xde, 0xad})
	f.Add(uint8(0), greWrongKeyFrame())

	f.Fuzz(func(t *testing.T, modeSel uint8, data []byte) {
		modes := []string{TunnelGRE, TunnelVXLAN, TunnelIPIP}
		mode := modes[int(modeSel)%len(modes)]

		tun := NewTunnel()
		cfgJSON, _ := json.Marshal(tunnelConfig(mode))
		if err := tun.Configure(cfgJSON); err != nil {
			t.Fatal(err)
		}
		tv, tClass, tOut := checkDecapCounters(t, "tunnel", tun.prog.Handler, tun.ctr, data,
			[2]int{TunnelDecapped, TunnelErrors}, []int{TunnelPassed})

		if mode != TunnelIPIP {
			m := NewMesh()
			mcfg, _ := json.Marshal(MeshConfig{
				Mode: mode, LocalIP: "10.255.0.1", LocalMAC: "02:aa:aa:aa:aa:01",
				VNI: 7777, GREKey: 99,
			})
			if err := m.Configure(mcfg); err != nil {
				t.Fatal(err)
			}
			mv, mClass, mOut := checkDecapCounters(t, "mesh", m.prog.Handler, m.ctr, data,
				[2]int{MeshDecapped, MeshErrors}, []int{MeshPassed})
			if tv != mv || tClass != mClass {
				t.Fatalf("%s: tunnel %v/%s, mesh %v/%s", mode, tv, tClass, mv, mClass)
			}
			if !bytes.Equal(tOut, mOut) {
				t.Fatalf("%s: decapped output differs: tunnel %dB, mesh %dB", mode, len(tOut), len(mOut))
			}
		}
	})
}

// checkDecapCounters runs one frame through a decap handler and asserts
// the counter/verdict contract: exactly one counter fires; Drop ⇔ the
// error counter; decapped ⇒ Pass with a strictly smaller frame. It
// returns the verdict, the counter class that fired ("decap", "err" or
// "pass") and the output frame.
func checkDecapCounters(t *testing.T, name string, h ppe.Handler, ctr *ppe.CounterBank, data []byte, decapErrIdx [2]int, passIdx []int) (ppe.Verdict, string, []byte) {
	t.Helper()
	decapIdx, errIdx := decapErrIdx[0], decapErrIdx[1]
	in := append([]byte(nil), data...)
	ctx := &ppe.Ctx{Data: in, Dir: ppe.DirOpticalToEdge, TimestampNs: 1}
	v := h.HandlePacket(ctx)

	total := uint64(0)
	counts := map[int]uint64{}
	for _, idx := range append([]int{decapIdx, errIdx}, passIdx...) {
		n, _ := ctr.Read(idx)
		counts[idx] = n
		total += n
	}
	if total != 1 {
		t.Fatalf("%s: %d counters fired for one frame", name, total)
	}
	switch v {
	case ppe.VerdictDrop:
		if counts[errIdx] != 1 {
			t.Fatalf("%s: dropped frame not in the error counter", name)
		}
	case ppe.VerdictPass:
		if counts[errIdx] != 0 {
			t.Fatalf("%s: passed frame counted as error", name)
		}
	}
	if counts[decapIdx] == 1 && len(ctx.Data) >= len(data) {
		t.Fatalf("%s: decap output (%dB) not smaller than input (%dB)", name, len(ctx.Data), len(data))
	}
	class := "pass"
	switch {
	case counts[decapIdx] == 1:
		class = "decap"
	case counts[errIdx] == 1:
		class = "err"
	}
	return v, class, ctx.Data
}
