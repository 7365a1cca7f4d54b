package apps

import (
	"fmt"
	"net/netip"

	"flexsfp/internal/packet"
)

// The overlay codec shared by the tunnel and mesh apps: one outer-header
// stack per destination for the transmit side, and one classifier for the
// receive side. Keeping both in one place is what makes a point tunnel
// and a mesh endpoint with the same receive config agree frame for frame
// (FuzzOverlayDecap checks it differentially).

// decapStatus classifies an optical-side frame.
type decapStatus int

const (
	// decapPass: not this endpoint's tunnel traffic (wrong destination,
	// non-IP, a foreign tenant's VNI, or a protocol the mode does not
	// own) — forwarded untouched.
	decapPass decapStatus = iota
	// decapOK: a well-formed tunnel frame, inner payload recovered.
	decapOK
	// decapErr: addressed to this endpoint and claiming its tunnel mode,
	// but malformed (truncated or corrupt outer headers, or the wrong
	// GRE key) — dropped and counted as an error, never silently
	// forwarded.
	decapErr
)

var encapOpts = packet.SerializeOptions{FixLengths: true, ComputeChecksums: true}

// encapStack is the outer-header stack toward one destination. The layer
// structs and the stack slice are built once, at control-plane rate, so
// the per-frame path does not allocate.
type encapStack struct {
	mode    string
	eth     packet.Ethernet
	ip      packet.IPv4
	gre     packet.GRE
	udp     packet.UDP
	vx      packet.VXLAN
	payload packet.Payload
	stack   []packet.SerializableLayer
}

// newEncapStack builds the stack for mode (TunnelGRE, TunnelVXLAN or
// TunnelIPIP) from src to dst. vni applies to VXLAN; a non-zero greKey
// is carried in the GRE key field.
func newEncapStack(mode string, srcMAC, dstMAC packet.MAC, src, dst netip.Addr, ttl uint8, vni, greKey uint32) (*encapStack, error) {
	e := &encapStack{
		mode: mode,
		eth:  packet.Ethernet{SrcMAC: srcMAC, DstMAC: dstMAC, EtherType: packet.EtherTypeIPv4},
		ip:   packet.IPv4{TTL: ttl, SrcIP: src, DstIP: dst, DontFrag: true},
	}
	switch mode {
	case TunnelGRE:
		e.ip.Protocol = packet.IPProtocolGRE
		e.gre = packet.GRE{Protocol: packet.EtherTypeTransparentEthernet, KeyPresent: greKey != 0, Key: greKey}
		e.stack = []packet.SerializableLayer{&e.eth, &e.ip, &e.gre, &e.payload}
	case TunnelVXLAN:
		e.ip.Protocol = packet.IPProtocolUDP
		e.udp = packet.UDP{DstPort: packet.PortVXLAN}
		if err := e.udp.SetNetworkLayerForChecksum(src, dst); err != nil {
			return nil, err
		}
		e.vx = packet.VXLAN{VNI: vni}
		e.stack = []packet.SerializableLayer{&e.eth, &e.ip, &e.udp, &e.vx, &e.payload}
	case TunnelIPIP:
		e.ip.Protocol = packet.IPProtocolIPv4
		e.stack = []packet.SerializableLayer{&e.eth, &e.ip, &e.payload}
	default:
		return nil, fmt.Errorf("unknown encap mode %q", mode)
	}
	return e, nil
}

// wrap encapsulates inner (the edge frame, or for IP-in-IP its IPv4
// packet) and returns the result in a ring cell along with its size. When
// the would-be size n exceeds mtu, wrap returns a nil frame and a nil
// error: outer packets carry DF, so the hardware drops (an ICMP too-big
// would be the control plane's job), and callers count n — not the inner
// size — so MTU headroom is directly measurable.
func (e *encapStack) wrap(inner []byte, buf *packet.SerializeBuffer, ring *frameRing, mtu int) ([]byte, int, error) {
	if e.mode == TunnelVXLAN {
		// Source-port entropy from the inner frame keeps ECMP balanced.
		e.udp.SrcPort = uint16(49152 + packet.FNV64(inner[:min(34, len(inner))])%16384)
	}
	e.payload = packet.Payload(inner)
	err := packet.SerializeLayers(buf, encapOpts, e.stack...)
	e.payload = nil
	if err != nil {
		return nil, 0, err
	}
	if buf.Len() > mtu {
		return nil, buf.Len(), nil
	}
	return ring.copyIn(buf.Bytes()), buf.Len(), nil
}

// decapEndpoint is the receive side of an overlay endpoint: the frames
// it opens are addressed to local4, carry its mode's protocol and, for
// VXLAN, its VNI. A non-zero greKey must match the frame's GRE key.
type decapEndpoint struct {
	mode   string
	local4 [4]byte
	vni    uint32
	greKey uint32
}

// classify parses data into v and returns the inner frame (for IP-in-IP,
// the inner IPv4 packet) aliasing data, with its classification.
func (d *decapEndpoint) classify(v *packet.View, data []byte) ([]byte, decapStatus) {
	if !v.Parse(data) || !v.IsIPv4 || [4]byte(v.DstIPv4()) != d.local4 {
		return nil, decapPass
	}
	l4 := v.L3Off + v.IPv4HeaderLen()
	switch {
	case d.mode == TunnelGRE && v.Proto == packet.IPProtocolGRE:
		var gre packet.GRE
		if gre.DecodeFromBytes(data[l4:]) != nil ||
			gre.Protocol != packet.EtherTypeTransparentEthernet {
			return nil, decapErr
		}
		if d.greKey != 0 && (!gre.KeyPresent || gre.Key != d.greKey) {
			// Claims our endpoint without our key — corrupt or spoofed.
			return nil, decapErr
		}
		return gre.LayerPayload(), decapOK
	case d.mode == TunnelVXLAN && v.Proto == packet.IPProtocolUDP && v.DstPort == packet.PortVXLAN:
		if len(data) < l4+16 {
			return nil, decapErr
		}
		var vx packet.VXLAN
		if vx.DecodeFromBytes(data[l4+8:]) != nil {
			return nil, decapErr
		}
		if vx.VNI != d.vni {
			// Well-formed but a different tenant's segment: not ours to
			// open — forward untouched.
			return nil, decapPass
		}
		return vx.LayerPayload(), decapOK
	case d.mode == TunnelIPIP && v.Proto == packet.IPProtocolIPv4:
		return data[l4:], decapOK
	}
	return nil, decapPass
}
