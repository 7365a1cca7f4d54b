// Package trafficgen generates deterministic synthetic workloads for the
// experiments: fixed-size streams at a target rate, the canonical IMIX
// blend, Zipf-distributed flow populations, and the per-subscriber access
// traffic (DNS + HTTPS + UDP) of the §2.1 telecom scenario. It stands in
// for the paper's line-rate traffic testers.
package trafficgen

import (
	"math/rand"
	"net/netip"
	"sync"

	"flexsfp/internal/netsim"
	"flexsfp/internal/packet"
	"flexsfp/internal/telemetry"
)

// maxPooledFrame is the buffer size the frame pool hands out: large
// enough for a 1518-byte frame plus tunnel/telemetry growth.
const maxPooledFrame = 2048

// framePool recycles emission buffers. Buffers are stored as fixed-size
// array pointers so both Get and Put are allocation-free (a *[N]byte fits
// in the interface word; no slice-header escape). The pool is shared by
// all generators and is safe across the parallel experiment runner —
// buffer contents are always fully overwritten on reuse, so recycling
// cannot perturb deterministic results.
var framePool = sync.Pool{New: func() any { return new([maxPooledFrame]byte) }}

// GetBuffer returns a frame buffer of length n, recycled when possible.
func GetBuffer(n int) []byte {
	if n > maxPooledFrame {
		return make([]byte, n)
	}
	a := framePool.Get().(*[maxPooledFrame]byte)
	return a[:n:maxPooledFrame]
}

// PutBuffer returns a buffer obtained from GetBuffer to the pool. Sinks
// call it once a frame's lifetime ends (after the verdict callback);
// buffers that were resliced or did not come from the pool are ignored.
// After PutBuffer the caller must not touch the slice again.
func PutBuffer(b []byte) {
	if cap(b) != maxPooledFrame {
		return
	}
	framePool.Put((*[maxPooledFrame]byte)(b[:maxPooledFrame]))
}

// IMIXEntry is one component of a size mix.
type IMIXEntry struct {
	Size   int
	Weight int
}

// SimpleIMIX is the classic 7:4:1 Internet mix (≈58%/33%/8%).
func SimpleIMIX() []IMIXEntry {
	return []IMIXEntry{{64, 7}, {594, 4}, {1518, 1}}
}

// Config describes a generated stream.
type Config struct {
	// PPS is the packet rate. Inter-arrival is constant (worst case for
	// line-rate tests); set Jitter to add exponential spacing noise.
	PPS float64
	// Sizes is the frame-size mix; a single entry gives fixed size.
	Sizes []IMIXEntry
	// Flows is the number of distinct 5-tuples; source ports (and low
	// source-IP bits) vary per flow.
	Flows int
	// ZipfS skews flow popularity (0 = uniform; 1.2 = heavy head).
	ZipfS float64
	// Jitter adds exponential inter-arrival noise with the given
	// fraction of the mean gap (0 = strictly paced).
	Jitter float64
	// SrcMAC/DstMAC/SrcIP/DstIP seed the header fields.
	SrcMAC, DstMAC packet.MAC
	SrcIP, DstIP   netip.Addr
	DstPort        uint16
	Proto          packet.IPProtocol

	// Rand, when set, replaces the simulator's ambient RNG for all of the
	// generator's draws (flow pick, size pick, jitter). Sharded
	// experiments must set it to a partition-keyed stream
	// (netsim.Sharded.Stream) so a generator's randomness is a function
	// of its logical partition, not of which shard hosts it — the
	// placement-invariance rule that keeps results byte-identical at any
	// shard count.
	Rand *rand.Rand

	// Templates, when set, bypasses the synthetic flow/size machinery:
	// emission draws from these pre-built frames by weight. This is how
	// the protocol-diverse profiles (ARP storms, DHCP churn, DNS-heavy
	// edge, elephant/mice) feed the generator — see NewProfile.
	Templates []WeightedFrame
}

// WeightedFrame is one pre-built template in a mixed-protocol profile.
type WeightedFrame struct {
	Frame  []byte
	Weight int
}

// Generator emits frames into a sink on a simulated schedule.
type Generator struct {
	sim  *netsim.Simulator
	cfg  Config
	rng  *rand.Rand
	sink func([]byte) bool

	frames    [][]byte // pre-built, one per (flow, size) combination
	sizeEdges []int    // cumulative weights
	sizeTotal int
	tmplEdges []int // cumulative template weights (template mode)
	tmplTotal int
	zipf      *rand.Zipf

	Sent    uint64
	Refused uint64 // sink returned false (downstream drop)

	// tracer, when set, samples emitted frames into the packet-trace ring
	// and threads the trace ID through the synchronous sink call.
	tracer *telemetry.Tracer

	stopped bool
}

// New builds a generator; frames go to sink (which reports acceptance).
func New(sim *netsim.Simulator, cfg Config, sink func([]byte) bool) *Generator {
	if cfg.PPS <= 0 {
		panic("trafficgen: PPS must be positive")
	}
	if len(cfg.Sizes) == 0 {
		cfg.Sizes = []IMIXEntry{{Size: 64, Weight: 1}}
	}
	if cfg.Flows <= 0 {
		cfg.Flows = 1
	}
	if cfg.Proto == 0 {
		cfg.Proto = packet.IPProtocolUDP
	}
	if !cfg.SrcIP.IsValid() {
		cfg.SrcIP = netip.MustParseAddr("10.1.0.1")
	}
	if !cfg.DstIP.IsValid() {
		cfg.DstIP = netip.MustParseAddr("10.2.0.1")
	}
	if cfg.DstPort == 0 {
		cfg.DstPort = 80
	}
	g := &Generator{sim: sim, cfg: cfg, sink: sink}
	g.rng = cfg.Rand
	if g.rng == nil {
		g.rng = sim.Rand()
	}
	if len(cfg.Templates) > 0 {
		for _, wf := range cfg.Templates {
			if wf.Weight <= 0 || len(wf.Frame) == 0 {
				panic("trafficgen: template frames need content and positive weight")
			}
			g.frames = append(g.frames, wf.Frame)
			g.tmplTotal += wf.Weight
			g.tmplEdges = append(g.tmplEdges, g.tmplTotal)
		}
		return g
	}
	for _, e := range cfg.Sizes {
		g.sizeTotal += e.Weight
		g.sizeEdges = append(g.sizeEdges, g.sizeTotal)
	}
	if cfg.ZipfS > 0 && cfg.Flows > 1 {
		g.zipf = rand.NewZipf(g.rng, cfg.ZipfS+1, 1, uint64(cfg.Flows-1))
	}
	g.prebuild()
	return g
}

// prebuild materializes one frame per flow and size class; emission then
// just picks a template (allocation-free hot path).
func (g *Generator) prebuild() {
	src4 := g.cfg.SrcIP
	for f := 0; f < g.cfg.Flows; f++ {
		srcIP := src4
		if src4.Is4() {
			b := src4.As4()
			b[2] ^= byte(f >> 8)
			b[3] ^= byte(f)
			srcIP = netip.AddrFrom4(b)
		}
		for _, e := range g.cfg.Sizes {
			frame := packet.MustBuild(packet.Spec{
				SrcMAC: g.cfg.SrcMAC, DstMAC: g.cfg.DstMAC,
				SrcIP: srcIP, DstIP: g.cfg.DstIP,
				Proto:   g.cfg.Proto,
				SrcPort: uint16(1024 + f), DstPort: g.cfg.DstPort,
				PadTo: e.Size,
			})
			g.frames = append(g.frames, frame)
		}
	}
}

func (g *Generator) pickFrame() []byte {
	if g.tmplTotal > 0 {
		w := g.rng.Intn(g.tmplTotal)
		for i, edge := range g.tmplEdges {
			if w < edge {
				return g.frames[i]
			}
		}
	}
	flow := 0
	if g.cfg.Flows > 1 {
		if g.zipf != nil {
			flow = int(g.zipf.Uint64())
		} else {
			flow = g.rng.Intn(g.cfg.Flows)
		}
	}
	size := 0
	if len(g.cfg.Sizes) > 1 {
		w := g.rng.Intn(g.sizeTotal)
		for i, edge := range g.sizeEdges {
			if w < edge {
				size = i
				break
			}
		}
	}
	return g.frames[flow*len(g.cfg.Sizes)+size]
}

// gap returns the next inter-arrival time.
func (g *Generator) gap() netsim.Duration {
	mean := float64(netsim.Second) / g.cfg.PPS
	if g.cfg.Jitter > 0 {
		mean = mean*(1-g.cfg.Jitter) + g.rng.ExpFloat64()*mean*g.cfg.Jitter
	}
	d := netsim.Duration(mean)
	if d < 1 {
		d = 1
	}
	return d
}

// Run emits count frames (0 = until Stop), starting one gap from now.
func (g *Generator) Run(count uint64) {
	var emit func()
	emit = func() {
		if g.stopped || (count > 0 && g.Sent >= count) {
			return
		}
		frame := g.pickFrame()
		// Copy into a pooled buffer: downstream mutates frames in place
		// and may retain them until the verdict fires; consumers recycle
		// with PutBuffer when done.
		buf := GetBuffer(len(frame))
		copy(buf, frame)
		if tr := g.tracer; tr != nil {
			id, _ := tr.Sample()
			if id != 0 {
				tr.Hop(id, telemetry.StageGen, uint64(g.sim.Now()), len(buf), 0)
			}
			// Install the ambient ID (0 for unsampled frames) for the
			// synchronous sink chain: link Send, or module rx → PPE submit.
			tr.SetCurrent(id)
		}
		if g.sink(buf) {
			g.Sent++
		} else {
			g.Sent++
			g.Refused++
		}
		if g.tracer != nil {
			g.tracer.SetCurrent(0)
		}
		g.sim.ScheduleDetached(g.gap(), emit)
	}
	g.sim.ScheduleDetached(g.gap(), emit)
}

// SetTracer attaches (or detaches, with nil) the packet-trace sampler.
// Wiring-time only.
func (g *Generator) SetTracer(tr *telemetry.Tracer) { g.tracer = tr }

// Stop halts emission after the current event.
func (g *Generator) Stop() { g.stopped = true }

// MeanFrameSize returns the weighted mean of the size mix (or of the
// template set in template mode).
func (g *Generator) MeanFrameSize() float64 {
	if len(g.cfg.Templates) > 0 {
		total, weight := 0, 0
		for _, wf := range g.cfg.Templates {
			total += len(wf.Frame) * wf.Weight
			weight += wf.Weight
		}
		return float64(total) / float64(weight)
	}
	total, weight := 0, 0
	for _, e := range g.cfg.Sizes {
		total += e.Size * e.Weight
		weight += e.Weight
	}
	return float64(total) / float64(weight)
}
