package xdp_test

import (
	"net/netip"
	"testing"

	"flexsfp/internal/apps"
	"flexsfp/internal/packet"
	"flexsfp/internal/xdp"
)

// dnsFrame is a 64-byte IPv4/UDP frame to port 53: the canonical codelet
// walks its longest path (every check, then drop) on it.
func dnsFrame() []byte {
	return packet.MustBuild(packet.Spec{
		SrcIP: netip.MustParseAddr("10.1.0.1"), DstIP: netip.MustParseAddr("10.2.0.1"),
		Proto: packet.IPProtocolUDP, SrcPort: 1024, DstPort: 53, PadTo: 64,
	})
}

// BenchmarkXDPRun is the interpreter's per-frame host cost on the
// canonical codelet (apps.CanonicalXDPProgram).
func BenchmarkXDPRun(b *testing.B) {
	prog, frame := apps.CanonicalXDPProgram(), dnsFrame()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := prog.Run(frame); err != nil {
			b.Fatal(err)
		}
	}
}

// TestXDPRunZeroAlloc pins the interpreter's hot path at zero allocations
// per frame.
func TestXDPRunZeroAlloc(t *testing.T) {
	prog, frame := apps.CanonicalXDPProgram(), dnsFrame()
	if act, err := prog.Run(frame); err != nil || act != xdp.ActDrop {
		t.Fatalf("canonical codelet on a DNS frame = %d, %v; want drop", act, err)
	}
	if n := testing.AllocsPerRun(200, func() { prog.Run(frame) }); n != 0 {
		t.Fatalf("xdp.Program.Run allocates %v per frame, want 0", n)
	}
}
