package apps

import (
	"encoding/json"
	"fmt"
	"net/netip"

	"flexsfp/internal/packet"
	"flexsfp/internal/ppe"
)

// Tunnel modes.
const (
	TunnelGRE   = "gre"
	TunnelVXLAN = "vxlan"
	TunnelIPIP  = "ipip"
)

// TunnelConfig configures encapsulation: frames from the edge are wrapped
// toward the optical side; matching tunnel traffic from the optical side
// is unwrapped ("insert tunneling headers for GRE, VXLAN, or IP-in-IP
// without involving the host", §3).
type TunnelConfig struct {
	Mode     string `json:"mode"`
	LocalIP  string `json:"local_ip"`
	RemoteIP string `json:"remote_ip"`
	LocalMAC string `json:"local_mac"`
	// GatewayMAC is the next hop toward the tunnel remote.
	GatewayMAC string `json:"gateway_mac"`
	VNI        uint32 `json:"vni,omitempty"` // VXLAN
	GREKey     uint32 `json:"gre_key,omitempty"`
	TTL        uint8  `json:"ttl,omitempty"`
	// MTU bounds the encapsulated frame (outer packets carry DF); frames
	// that would exceed it are dropped and counted. Default 1518.
	MTU int `json:"mtu,omitempty"`
}

// Tunnel counter indexes (bank "tunnel").
const (
	TunnelEncapped = iota
	TunnelDecapped
	TunnelPassed
	TunnelErrors
	TunnelTooBig
	tunnelCounters
)

type tunnelApp struct {
	prog  *ppe.Program
	state *ppe.State
	ctr   *ppe.CounterBank

	enc  *encapStack // toward the remote; nil until configured
	rx   decapEndpoint
	mtu  int
	buf  *packet.SerializeBuffer
	v    packet.View
	ring *frameRing

	// IP-in-IP decap re-wraps the inner IPv4 packet in the edge-side
	// Ethernet header; the stack is built once so the path stays
	// alloc-free.
	inner    packet.Payload
	ethStack []packet.SerializableLayer
}

// NewTunnel builds a tunnel endpoint instance.
func NewTunnel() *tunnelApp {
	a := &tunnelApp{state: ppe.NewState(), buf: packet.NewSerializeBuffer()}
	a.ctr = a.state.AddCounters("tunnel", tunnelCounters)
	a.prog = &ppe.Program{
		Name:        "tunnel",
		Version:     1,
		ParseLayers: []packet.LayerType{packet.LayerTypeEthernet, packet.LayerTypeIPv4, packet.LayerTypeUDP},
		Actions: []ppe.ActionSpec{
			{Kind: ppe.ActionPush, Bytes: 50}, // worst case: VXLAN outer stack
			{Kind: ppe.ActionPop, Bytes: 50},
			{Kind: ppe.ActionChecksum},
			{Kind: ppe.ActionHash, Bits: 16}, // source-port entropy
			{Kind: ppe.ActionCounterBank, Count: tunnelCounters},
		},
		Stages:  3,
		Handler: ppe.HandlerFunc(a.handle),
	}
	return a
}

// Program implements core.App.
func (a *tunnelApp) Program() *ppe.Program { return a.prog }

// State implements core.App.
func (a *tunnelApp) State() *ppe.State { return a.state }

// Configure implements core.App.
func (a *tunnelApp) Configure(config []byte) error {
	var cfg TunnelConfig
	if err := json.Unmarshal(config, &cfg); err != nil {
		return fmt.Errorf("tunnel: %w", err)
	}
	local, err := netip.ParseAddr(cfg.LocalIP)
	if err != nil {
		return fmt.Errorf("tunnel local: %w", err)
	}
	remote, err := netip.ParseAddr(cfg.RemoteIP)
	if err != nil {
		return fmt.Errorf("tunnel remote: %w", err)
	}
	if !local.Is4() || !remote.Is4() {
		return fmt.Errorf("tunnel: IPv4 endpoints required")
	}
	lmac, err := packet.ParseMAC(cfg.LocalMAC)
	if err != nil {
		return fmt.Errorf("tunnel local MAC: %w", err)
	}
	gmac, err := packet.ParseMAC(cfg.GatewayMAC)
	if err != nil {
		return fmt.Errorf("tunnel gateway MAC: %w", err)
	}
	ttl := cfg.TTL
	if ttl == 0 {
		ttl = 64
	}
	enc, err := newEncapStack(cfg.Mode, lmac, gmac, local, remote, ttl, cfg.VNI, cfg.GREKey)
	if err != nil {
		return fmt.Errorf("tunnel: %w", err)
	}
	a.enc = enc
	a.rx = decapEndpoint{mode: cfg.Mode, local4: local.As4(), vni: cfg.VNI, greKey: cfg.GREKey}
	a.mtu = cfg.MTU
	if a.mtu == 0 {
		a.mtu = 1518
	}
	a.ethStack = []packet.SerializableLayer{&a.enc.eth, &a.inner}
	if a.ring == nil {
		a.ring = newFrameRing()
	}
	return nil
}

func (a *tunnelApp) handle(ctx *ppe.Ctx) ppe.Verdict {
	if a.enc == nil {
		return ppe.VerdictPass
	}
	switch ctx.Dir {
	case ppe.DirEdgeToOptical:
		inner := ctx.Data
		if a.enc.mode == TunnelIPIP {
			// IP-in-IP carries the inner IP packet only.
			if !a.v.Parse(inner) || !a.v.IsIPv4 {
				a.ctr.Inc(TunnelErrors, len(ctx.Data))
				return ppe.VerdictDrop
			}
			inner = inner[a.v.L3Off:]
		}
		out, n, err := a.enc.wrap(inner, a.buf, a.ring, a.mtu)
		switch {
		case err != nil:
			a.ctr.Inc(TunnelErrors, len(ctx.Data))
			return ppe.VerdictDrop
		case out == nil:
			a.ctr.Inc(TunnelTooBig, n)
			return ppe.VerdictDrop
		}
		ctx.Data = out
		a.ctr.Inc(TunnelEncapped, n)
	case ppe.DirOpticalToEdge:
		inner, st := a.rx.classify(&a.v, ctx.Data)
		if st == decapOK && a.rx.mode == TunnelIPIP {
			// Re-wrap the inner IP packet in an Ethernet frame toward the
			// edge host.
			a.inner = packet.Payload(inner)
			err := packet.SerializeLayers(a.buf, packet.SerializeOptions{}, a.ethStack...)
			a.inner = nil
			if err != nil {
				st = decapErr
			}
			inner = a.buf.Bytes()
		}
		switch st {
		case decapPass:
			a.ctr.Inc(TunnelPassed, len(ctx.Data))
			return ppe.VerdictPass
		case decapErr:
			a.ctr.Inc(TunnelErrors, len(ctx.Data))
			return ppe.VerdictDrop
		}
		ctx.Data = a.ring.copyIn(inner)
		a.ctr.Inc(TunnelDecapped, len(ctx.Data))
	}
	return ppe.VerdictPass
}
