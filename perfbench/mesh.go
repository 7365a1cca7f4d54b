package main

import (
	"fmt"
	"math/rand"
	"net/netip"
	"strings"
	"time"

	"flexsfp/internal/apps"
	"flexsfp/internal/mgmt"
	"flexsfp/internal/netsim"
	"flexsfp/internal/overlay"
	"flexsfp/internal/packet"
	"flexsfp/internal/ppe"
	"flexsfp/internal/trafficgen"
)

// mesh-churn: an 8-cable overlay fabric on the sharded simulator. Every
// cable's edge streams to every other cable's /24 (GRE and VXLAN
// cables alternate). Each step is one churn cycle on a fixed simulated
// schedule: a cable is withdrawn at the rendezvous and every cable
// re-syncs, traffic runs, the cable re-registers and every cable
// re-syncs, traffic runs again.
const (
	meshCables       = 8
	meshPPS          = 1_000_000 // per cable, spread over the 7 peers
	meshFrameBytes   = 256
	meshWindow       = 50 * netsim.Microsecond
	meshDrain        = 5 * netsim.Microsecond // in-flight frames before the withdrawal counts
	meshWarmupCycles = 4
	meshCapture      = 1024
)

func init() {
	workloads["mesh-churn"] = &workload{
		setupReps: 45,
		setup:     setupMesh,
	}
}

type meshRecv struct {
	total     uint64
	from      [meshCables]uint64
	sinceMark uint64 // deliveries after the current mark
	marked    bool
	markAt    netsim.Time
}

type meshTaps struct {
	tr     *tracer
	taps   []*tap
	run    int
	sync   int
	rdv    int
	encap  int
	decap  int
	capOut [][][]byte // per cable, outer frames seen by the decap handler
}

type mesh struct {
	seed   int64
	shards int
	sh     *netsim.Sharded
	fab    *overlay.Fabric
	gens   []*trafficgen.Generator
	wires  []*netsim.Link // edge wires, by cable
	down   []bool         // cable withdrawn: its edge source is quiet
	recv   []*meshRecv
	sims   []*netsim.Simulator
	order  []int // victim order, from the seed
	cycle  int
	phase  int // next phase of the current cycle
	v      int // the current cycle's cable
	// Per cable: delivery counts by sender when it last re-registered,
	// awaiting the re-convergence check.
	rejoined [meshCables][meshCables]uint64
	pending  [meshCables]bool

	resyncs   samples
	failures  []string
	warmDeliv uint64
	warmS     float64
	digest    string

	l *lane // host lane of a traced instance
	t *meshTaps
}

func meshTemplates(i int) []trafficgen.WeightedFrame {
	var tmpl []trafficgen.WeightedFrame
	for j := 0; j < meshCables; j++ {
		if j == i {
			continue
		}
		tmpl = append(tmpl, trafficgen.WeightedFrame{Weight: 1, Frame: packet.MustBuild(packet.Spec{
			SrcMAC:  packet.MustMAC("02:0e:00:00:00:01"),
			DstMAC:  packet.MustMAC("02:0e:00:00:00:02"),
			SrcIP:   netip.MustParseAddr(fmt.Sprintf("10.200.%d.1", i+1)),
			DstIP:   netip.MustParseAddr(fmt.Sprintf("10.200.%d.9", j+1)),
			SrcPort: 1111, DstPort: 2222,
			PadTo: meshFrameBytes,
		})})
	}
	return tmpl
}

func setupMesh(cfg config, tr *tracer) (instance, error) {
	return newMesh(cfg.seed, cfg.shards, tr)
}

func newMesh(seed int64, shards int, tr *tracer) (*mesh, error) {
	n := meshCables
	w := &mesh{seed: seed, shards: shards, sh: netsim.NewSharded(seed, shards), down: make([]bool, n)}
	w.order = rand.New(rand.NewSource(seed)).Perm(n)
	for i := 0; i < n; i++ {
		w.recv = append(w.recv, &meshRecv{})
		w.sims = append(w.sims, w.sh.Shard(w.sh.ShardFor(i)))
	}
	fab, err := overlay.NewFabric(overlay.FabricSpec{
		Sh: w.sh, Cables: n,
		EdgeSink: func(i int, data []byte) {
			if len(data) < 34 {
				return
			}
			s := int(data[28]) - 1 // sender: inner source's third octet
			if s < 0 || s >= meshCables {
				return
			}
			r := w.recv[i]
			r.total++
			r.from[s]++
			if r.marked && w.sims[i].Now() >= r.markAt {
				r.sinceMark++
			}
		},
	})
	if err != nil {
		return nil, err
	}
	w.fab = fab
	if tr != nil {
		w.l = tr.lane(0)
		w.t = &meshTaps{
			tr: tr, run: tr.layer("netsim.sharded.run"), sync: tr.layer("overlay.sync"),
			rdv: tr.layer("overlay.rendezvous"), encap: tr.layer("app.mesh.encap"),
			decap: tr.layer("app.mesh.decap"), capOut: make([][][]byte, n),
		}
		for i, c := range fab.Cables {
			tp := newTap(tr, tr.lane(1+w.sh.ShardFor(i)), i, c.Mod)
			w.t.taps = append(w.t.taps, tp)
			tp.wrapHandler(c.Mod, func(ctx *ppe.Ctx) int {
				if ctx.Dir == ppe.DirEdgeToOptical {
					return w.t.encap
				}
				if caps := w.t.capOut[i]; len(caps) < meshCapture && tp.opt%8 == 0 {
					w.t.capOut[i] = append(caps, append([]byte(nil), ctx.Data...))
				}
				return w.t.decap
			})
		}
	}
	if err := w.rendezvous(func() error { return fab.RegisterAll() }); err != nil {
		return nil, err
	}
	w.sh.AlignClocks()
	for i, c := range fab.Cables {
		i := i
		rx := c.Mod.RxEdge
		if w.t != nil {
			rx = w.t.taps[i].rxFn(rx)
		}
		wire := netsim.NewLink(c.Sim, 10_000_000_000, 0, rx)
		send := func(b []byte) bool {
			if w.down[i] {
				trafficgen.PutBuffer(b)
				return false
			}
			return wire.Send(b)
		}
		if w.t != nil {
			send = w.t.taps[i].sendFn(send)
		}
		gen := trafficgen.New(c.Sim, trafficgen.Config{
			PPS: meshPPS, Templates: meshTemplates(i), Rand: w.sh.Stream(i),
		}, send)
		gen.Run(0)
		w.gens = append(w.gens, gen)
		w.wires = append(w.wires, wire)
	}
	return w, nil
}

// rendezvous runs a control-plane change (spanned when traced).
func (w *mesh) rendezvous(fn func() error) error {
	if w.l == nil {
		return fn()
	}
	w.l.begin(w.t.rdv, 0)
	err := fn()
	w.l.end()
	return err
}

// syncAll reconciles every cable (spanned when traced).
func (w *mesh) syncAll() error {
	if w.l == nil {
		return w.fab.SyncAll()
	}
	w.l.begin(w.t.sync, 0)
	err := w.fab.SyncAll()
	w.l.end()
	return err
}

// runUntil advances the sharded world; a traced run credits the busiest
// shard's spanned time to the host root span as its critical path.
func (w *mesh) runUntil(t netsim.Time) {
	if w.l == nil {
		w.sh.RunUntil(t)
		return
	}
	before := w.t.tr.laneRoots()
	w.l.begin(w.t.run, 0)
	w.sh.RunUntil(t)
	w.l.addChild(w.t.tr.busiest(before))
	w.l.end()
}

// cycleOnce runs one churn cycle; resync host times go to w.resyncs.
func (w *mesh) cycleOnce() error {
	for i := 0; i < meshPhases; i++ {
		if err := w.phaseStep(); err != nil {
			return err
		}
	}
	return nil
}

// meshPhases is the number of phases in a churn cycle.
const meshPhases = 4

// phaseStep runs the next phase of the churn cycle: withdraw the next
// cable and re-sync; traffic; re-register it and re-sync; traffic.
// Resync host times go to w.resyncs.
func (w *mesh) phaseStep() error {
	p := w.phase
	w.phase = (w.phase + 1) % meshPhases
	switch p {
	case 0:
		w.v = w.order[w.cycle%meshCables]
		w.cycle++
		w.checkRejoin(w.v)
		victim := w.fab.Cables[w.v].Name
		t0 := time.Now()
		if err := w.rendezvous(func() error { return w.fab.Withdraw((w.v+1)%meshCables, victim) }); err != nil {
			return err
		}
		if err := w.syncAll(); err != nil {
			return err
		}
		w.resyncs.add(us(time.Since(t0)))
		w.down[w.v] = true
	case 1:
		now := w.sh.Now()
		w.runUntil(now.Add(meshDrain))
		r := w.recv[w.v]
		r.marked, r.markAt, r.sinceMark = true, now.Add(meshDrain), 0
		w.runUntil(now.Add(meshWindow))
		if r.sinceMark != 0 {
			w.failures = append(w.failures, fmt.Sprintf("cycle %d: %d frames reached withdrawn cable %d after convergence", w.cycle, r.sinceMark, w.v))
		}
		r.marked = false
	case 2:
		t0 := time.Now()
		if err := w.rendezvous(func() error { _, err := w.fab.Cables[w.v].Ctl.Register(); return err }); err != nil {
			return err
		}
		if err := w.syncAll(); err != nil {
			return err
		}
		w.resyncs.add(us(time.Since(t0)))
		w.down[w.v] = false
		w.rejoined[w.v], w.pending[w.v] = w.recv[w.v].from, true
	case 3:
		w.runUntil(w.sh.Now().Add(meshWindow))
	}
	return nil
}

// checkRejoin verifies that every flow toward cable v delivered again
// since v last re-registered (checked before v's next withdrawal, so
// each flow has several windows to re-converge).
func (w *mesh) checkRejoin(v int) {
	if !w.pending[v] {
		return
	}
	w.pending[v] = false
	for s := 0; s < meshCables; s++ {
		if s != v && w.recv[v].from[s] == w.rejoined[v][s] {
			w.failures = append(w.failures, fmt.Sprintf("cycle %d: flow %d→%d did not re-converge", w.cycle, s, v))
		}
	}
}

func (w *mesh) sent() uint64 {
	var s uint64
	for _, g := range w.gens {
		s += g.Sent - g.Refused
	}
	return s
}

func (w *mesh) delivered() uint64 {
	var d uint64
	for _, r := range w.recv {
		d += r.total
	}
	return d
}

func (w *mesh) warmup() error {
	t0 := w.sh.Now()
	for i := 0; i < meshWarmupCycles; i++ {
		if err := w.cycleOnce(); err != nil {
			return err
		}
	}
	w.warmDeliv = w.delivered()
	w.warmS = w.sh.Now().Sub(t0).Seconds()
	w.digest = w.state()
	w.resyncs.reset()
	return nil
}

// state is the canonical modeled state: engine counters, the delivery
// matrix, the rendezvous generation and every cable's tables.
func (w *mesh) state() string {
	var b strings.Builder
	fmt.Fprintf(&b, "gen=%d now=%d\n", w.fab.Rdv.Generation(), w.sh.Now())
	for i, c := range w.fab.Cables {
		fmt.Fprintf(&b, "%s engine=%+v from=%v nolink=%d ctlgen=%d\n", c.Name, c.Mod.Engine().Stats(), w.recv[i].from, c.NoLinkDrops, c.Ctl.Generation())
		for _, name := range []string{apps.MeshPeerTable, apps.MeshRouteTable} {
			t, _ := c.Mod.App().State().Table(name)
			for _, e := range t.Snapshot() {
				fmt.Fprintf(&b, "  %s %x=%x\n", name, e.Key, e.Value)
			}
		}
	}
	return b.String()
}

func (w *mesh) modeled() (metrics, string) {
	m := metrics{}
	m.set("workload.modeled_mpps", float64(w.warmDeliv)/w.warmS/1e6, "Mpps")
	return m, w.digest
}

// step runs one phase of a churn cycle.
func (w *mesh) step() (int64, error) {
	before := w.sent()
	if err := w.phaseStep(); err != nil {
		return 0, err
	}
	return int64(w.sent() - before), nil
}

func (w *mesh) figures(m metrics) {
	m.set("workload.resync_ms", w.resyncs.quantile(0.5)/1e3, "ms")
}

func (w *mesh) finish() check {
	var c check
	w.runUntil(w.sh.Now().Add(4 * meshWindow))
	for v := range w.pending {
		w.checkRejoin(v)
	}
	for i := range w.down {
		w.down[i] = true
	}
	w.runUntil(w.sh.Now().Add(20 * netsim.Microsecond))
	offered := w.sent()
	accounted := w.delivered()
	for _, cb := range w.fab.Cables {
		st := cb.Mod.Engine().Stats()
		// Verdict drops are the fail-closed MeshNoPeer path; frames with
		// no route pass untouched and die at the fabric (NoLinkDrops).
		accounted += st.Drop + st.ToCPU + st.QueueDrop + cb.NoLinkDrops
		if st.QueueDrop != 0 {
			c.failf("mesh-churn %s: %d PPE queue drops", cb.Name, st.QueueDrop)
		}
		for _, l := range cb.Links {
			if l != nil {
				if s := l.Stats(); s.Drops+s.DownDrops != 0 {
					c.failf("mesh-churn %s: %d underlay drops", cb.Name, s.Drops+s.DownDrops)
				}
			}
		}
	}
	c.attempted = int64(offered)
	if accounted < offered {
		c.failed = int64(offered - accounted)
		c.failf("mesh-churn: %d of %d offered frames unaccounted", offered-accounted, offered)
	}
	for _, f := range w.failures {
		c.failf("mesh-churn %s", f)
	}
	return c
}

func (w *mesh) layers(tr *tracer, ops int64, m metrics) {
	var in int64
	for _, c := range w.fab.Cables {
		in += int64(c.Mod.Engine().Stats().In)
	}
	// Shard lanes: loop time is shard time not inside a spanned layer,
	// net of what the lanes' root spans added to it.
	run := tr.stats("netsim.sharded.run")
	var shardSpans, roots int64
	for _, l := range tr.lanes[1:] {
		shardSpans += l.root
		for i := range l.count {
			roots += l.count[i] - l.kids[i]
		}
	}
	loop := float64(run.total)*float64(w.shards) - float64(shardSpans) - float64(roots)*tr.outer
	m.set("netsim.loop_self_ns", loop/float64(ops), "ns")
	m.set("netsim.link.send_ns", tr.perCall("netsim.link.send"), "ns")
	m.set("core.rx_ns", tr.perCall("core.rx"), "ns")
	m.set("app.mesh.encap_ns", tr.perCall("app.mesh.encap"), "ns")
	m.set("app.mesh.decap_ns", tr.perCall("app.mesh.decap"), "ns")
	m.set("ppe.frames_in", float64(in), "count")
	m.set("netsim.events_per_frame", float64(w.sh.Fired())/float64(w.sent()), "count")
	m.set("overlay.sync_ms", tr.perCall("overlay.sync")/1e6, "ms")
}

func (w *mesh) spanCounts() []spanCount {
	var sent, rx, handled int64
	for i, c := range w.fab.Cables {
		sent += int64(w.gens[i].Sent)
		rx += int64(w.wires[i].Stats().TxFrames) // edge receive only (see tap)
		handled += processed(c.Mod.Engine().Stats())
	}
	return []spanCount{
		{[]string{"netsim.link.send"}, sent},
		{[]string{"core.rx"}, rx},
		{[]string{"app.mesh.encap", "app.mesh.decap"}, handled},
	}
}

func (w *mesh) replay(m metrics, budget time.Duration) error {
	each := budget / 5
	var outer [][]byte
	for _, c := range w.t.capOut {
		outer = append(outer, c...)
	}
	m.set("packet.view_ns.mesh-outer", replayView(outer, each/2), "ns")

	// Reconcile writes: the peer table's live entries, added and deleted
	// on a fresh table of the same spec.
	peers, _ := w.fab.Cables[0].Mod.App().State().Table(apps.MeshPeerTable)
	var keys, vals [][]byte
	for _, e := range peers.Snapshot() {
		keys, vals = append(keys, e.Key), append(vals, e.Value)
	}
	add, del, err := replayTableWrites(peers.Spec, keys, vals, each/2)
	if err != nil {
		return err
	}
	m.set("ppe.table.add_us", add, "us")
	m.set("ppe.table.del_us", del, "us")

	// A sync with nothing to change, and the rendezvous' Peers handler.
	var noop []float64
	start := time.Now()
	for len(noop) == 0 || time.Since(start) < each {
		t0 := time.Now()
		if err := w.fab.SyncAll(); err != nil {
			return err
		}
		noop = append(noop, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	m.set("overlay.noop_sync_ms", median(noop), "ms")
	req := mgmt.Message{Type: mgmt.MsgOverlayPeers, ReqID: 1}.Encode()
	m.set("overlay.rendezvous_handle_us", replayLoop(1, each, func(int) { w.fab.Rdv.Handle(req) })/1e3, "us")

	// The same fabric and schedule at one shard and at this run's count.
	one, err := meshWallPerEvent(w.seed, 1, each)
	if err != nil {
		return err
	}
	many := one
	if w.shards > 1 {
		if many, err = meshWallPerEvent(w.seed, w.shards, each); err != nil {
			return err
		}
	}
	m.set("netsim.sharded.ns_per_event", many, "ns")
	m.set("netsim.sharded.speedup", one/many, "ratio")
	return nil
}

// meshWallPerEvent runs untraced churn cycles at the given shard count
// for about budget and returns host ns per simulated event.
func meshWallPerEvent(seed int64, shards int, budget time.Duration) (float64, error) {
	w, err := newMesh(seed, shards, nil)
	if err != nil {
		return 0, err
	}
	if err := w.cycleOnce(); err != nil {
		return 0, err
	}
	f0 := w.sh.Fired()
	t0 := time.Now()
	for time.Since(t0) < budget {
		if err := w.cycleOnce(); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(w.sh.Fired()-f0), nil
}

func (w *mesh) close() {}
