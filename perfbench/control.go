package main

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"time"

	"flexsfp/internal/apps"
	"flexsfp/internal/bitstream"
	"flexsfp/internal/build"
	"flexsfp/internal/core"
	"flexsfp/internal/daemon"
	"flexsfp/internal/faults"
	"flexsfp/internal/hls"
	"flexsfp/internal/mgmt"
	"flexsfp/internal/ppe"
	"flexsfp/internal/telemetry"
)

// control: one daemon (nat, telemetry on) over TCP loopback, driven by a
// closed loop on one connection — the next request goes out when the
// previous reply is in, as flexsfp-ctl and the overlay controller do.
//
// The loop runs sessions back to back. A session is the RPC sequence one
// of the repository's own mgmt callers issues:
//   - reconcile: overlay.Controller's sync — TableDump, then TableDel of
//     every stale key and TableAdd of every missing or changed one, in
//     sorted order — on the NAT table, whose wanted mappings drift by
//     1–4 entries per reconcile;
//   - the flexsfp-ctl commands stats, metrics (telemetry), table-get,
//     table-add and table-del, one RPC each;
//   - every ctlPushEvery-th session, flexsfp-ctl push of the signed
//     image to the inactive slot, reboot into it, and stats to check.
//
// Sessions are drawn uniformly from the reconcile and the five
// commands. The sequences are the callers'; their proportions are the
// benchmark's choice, not measured from any deployment.
//
// Every ctlFleetEvery RPCs, a fleet step rolls the in-memory fleet
// through a FleetController rollout with the fleet_ota chaos at its
// nominal rate, then aggregates its telemetry.
const (
	ctlPushEvery    = 200  // sessions between OTA pushes
	ctlFleetEvery   = 1000 // RPCs between fleet steps
	ctlFleetMembers = 2048
	ctlMappings     = 128 // wanted NAT mappings the reconciles converge to
	ctlWarmup       = 2 * ctlPushEvery
	ctlCapture      = 8192 // requests kept for replays
)

// Fleet rollout shape (the fleet_ota experiment's nominal point: fault
// rate 0.2 of its base rates).
const (
	fleetRate          = 0.2
	fleetCanaries      = 4
	fleetWaveSize      = 256
	fleetShardGate     = 0.5
	fleetGlobalGate    = 0.8
	fleetTamperProb    = 0.025
	fleetPowerCutProb  = 0.025
	fleetWedgeProb     = 0.010
	fleetLateWedgeProb = 0.010
)

func init() {
	workloads["control"] = &workload{
		setupReps: 15,
		setup:     setupControl,
	}
}

// rpcRec is one captured request and its client-side time.
type rpcRec struct {
	req []byte
	ns  int64
}

type control struct {
	seed     int64
	shards   int
	d        *daemon.Daemon
	conn     *mgmt.TCPTransport
	client   *mgmt.Client
	signed   []byte // the module's own app image, signed
	slot     int    // active slot
	rng      *rand.Rand
	want     kvSet // mappings the reconciles converge to
	present  kvSet // the table's entries, as the loop wrote them
	nextKey  uint32
	sessions int
	rpcs     int64
	steps    samples
	pushes   samples // ms
	rolls    samples // s

	fleetImg  [2][]byte // old, new
	fleet     []daemon.FleetMember
	fleetRuns int
	lastRep   daemon.FleetReport
	retries   uint64

	chk      check
	captured []rpcRec
	// capturedOn is the NAT table when the capture began, so the agent
	// replay starts from the same entries.
	capturedOn kvSet

	tr      *tracer
	l       *lane
	rpcL    int
	opL     int
	fleetL  int
	member  [4]int // push, stats, reboot, telemetry layers
	rollL   int
	aggL    int
	buildL  int
	waveSum []int64 // per-rollout wave self ns
	aggNs   []int64
}

// ctlTransport times every RPC on the wire (request written to response
// read) and, when traced, spans and captures it.
type ctlTransport struct{ w *control }

func (t ctlTransport) Do(req []byte) ([]byte, error) {
	w := t.w
	w.rpcs++
	if w.l != nil {
		w.l.begin(w.rpcL, w.tr.sample(uint64(w.rpcs)))
	}
	t0 := time.Now()
	resp, err := w.conn.Do(req)
	d := time.Since(t0)
	if w.l != nil {
		w.l.end()
		if len(w.captured) == 0 {
			w.capturedOn = newKVSet()
			for _, k := range w.present.keys {
				w.capturedOn.put(k, w.present.vals[k])
			}
		}
		if len(w.captured) < ctlCapture {
			w.captured = append(w.captured, rpcRec{append([]byte(nil), req...), d.Nanoseconds()})
		}
	}
	w.steps.add(us(d))
	return resp, err
}

func fleetImages() ([2][]byte, error) {
	var out [2][]byte
	for i, version := range []uint32{3, 9} {
		bs := &bitstream.Bitstream{
			AppName: "nat", AppVersion: version, Device: "MPF200T",
			ClockKHz: 156_250, DatapathBits: 64, Payload: make([]byte, 256),
		}
		enc, err := bs.Encode()
		if err != nil {
			return out, err
		}
		out[i] = bitstream.Sign(enc, build.DefaultAuthKey)
	}
	return out, nil
}

func setupControl(cfg config, tr *tracer) (instance, error) {
	w := &control{
		seed: cfg.seed, shards: cfg.shards, slot: 1, rng: rand.New(rand.NewSource(cfg.seed)), tr: tr,
		want: newKVSet(), present: newKVSet(),
	}
	for len(w.want.keys) < ctlMappings {
		w.want.put(w.newKey(), w.newValue())
	}
	d, err := daemon.Start(daemon.Config{
		Listen: "127.0.0.1:0", Name: "ctl", DeviceID: 1, App: "nat",
		Shell: "two-way-core", Telemetry: true, Seed: cfg.seed,
	})
	if err != nil {
		return nil, err
	}
	w.d = d
	enc, err := d.Design.Bitstream.Encode()
	if err != nil {
		w.close()
		return nil, err
	}
	w.signed = bitstream.Sign(enc, build.DefaultAuthKey)
	if w.conn, err = mgmt.Dial(d.Addr()); err != nil {
		w.close()
		return nil, err
	}
	w.conn.SetTimeout(10 * time.Second)
	w.client = mgmt.NewClient(ctlTransport{w})
	if tr != nil {
		w.l = tr.lane(0)
		w.rpcL, w.opL, w.fleetL = tr.layer("mgmt.rpc"), tr.layer("control.op"), tr.layer("control.fleet")
		w.rollL, w.aggL, w.buildL = tr.layer("fleet.rollout"), tr.layer("fleet.aggregate"), tr.layer("fleet.build")
		for i, n := range []string{"fleet.push", "fleet.stats", "fleet.reboot", "fleet.telemetry"} {
			w.member[i] = tr.layer(n)
		}
		for s := 0; s < cfg.shards; s++ {
			tr.lane(1 + s)
		}
	}
	if w.fleetImg, err = fleetImages(); err != nil {
		w.close()
		return nil, err
	}
	w.buildFleet()
	return w, nil
}

// buildFleet makes the next rollout's fresh fleet. Its fault draws come
// from the run's seed alone, so every rollout of a run meets the same
// chaos and is the same work.
func (w *control) buildFleet() {
	parent := faults.New(w.seed*1000003, faults.Rates{ConnDrop: 0.10, Stall: 0.10}.Scaled(fleetRate))
	members := daemon.BuildSimFleet(ctlFleetMembers, parent, daemon.SimMemberConfig{
		Key:           build.DefaultAuthKey,
		Retry:         mgmt.RetryPolicy{MaxAttempts: 4, BaseBackoff: 1 << 20, MaxBackoff: 1 << 23},
		TamperProb:    fleetTamperProb * fleetRate,
		PowerCutProb:  fleetPowerCutProb * fleetRate,
		WedgeProb:     fleetWedgeProb * fleetRate,
		LateWedgeProb: fleetLateWedgeProb * fleetRate,
	}, 3, 1, w.fleetImg[0])
	if w.tr != nil {
		for i, m := range members {
			members[i] = &timedMember{m: m, l: w.tr.lane(1 + daemon.ShardFor(m.Name(), w.shards)), layers: w.member}
		}
	}
	w.fleet = members
}

// newKey returns a NAT key not used before in this run.
func (w *control) newKey() [4]byte {
	w.nextKey++
	return [4]byte{10, byte(w.nextKey >> 16), byte(w.nextKey >> 8), byte(w.nextKey)}
}

func (w *control) newValue() [4]byte { return [4]byte{203, 0, 113, byte(w.rng.Intn(256))} }

// kvSet is a table's entries with their keys in a slice, so a seeded
// draw picks the same key on every run.
type kvSet struct {
	keys [][4]byte
	vals map[[4]byte][4]byte
}

func newKVSet() kvSet { return kvSet{vals: map[[4]byte][4]byte{}} }

func (s *kvSet) put(k, v [4]byte) {
	if _, ok := s.vals[k]; !ok {
		s.keys = append(s.keys, k)
	}
	s.vals[k] = v
}

func (s *kvSet) del(k [4]byte) {
	delete(s.vals, k)
	i := slices.Index(s.keys, k)
	s.keys = slices.Delete(s.keys, i, i+1)
}

func (s *kvSet) reset() {
	s.keys = s.keys[:0]
	clear(s.vals)
}

// pick returns a key drawn from rng; ok is false when s is empty.
func (s *kvSet) pick(rng *rand.Rand) ([4]byte, bool) {
	if len(s.keys) == 0 {
		return [4]byte{}, false
	}
	return s.keys[rng.Intn(len(s.keys))], true
}

// sorted returns the keys in byte order, the order overlay.Controller
// issues its writes in.
func (s *kvSet) sorted() [][4]byte {
	keys := slices.Clone(s.keys)
	slices.SortFunc(keys, func(a, b [4]byte) int { return bytes.Compare(a[:], b[:]) })
	return keys
}

// session runs the loop's next session.
func (w *control) session() {
	w.sessions++
	if w.sessions%ctlPushEvery == 0 {
		w.push()
		return
	}
	var err error
	switch w.rng.Intn(6) {
	case 0:
		err = w.reconcile()
	case 1:
		var st mgmt.Stats
		if st, err = w.client.ReadStats(); err == nil && !st.Running {
			err = errors.New("module not running")
		}
	case 2:
		_, err = w.client.Telemetry()
	case 3:
		k, ok := w.present.pick(w.rng)
		if !ok {
			break
		}
		var v []byte
		want := w.present.vals[k]
		if v, err = w.client.TableGet("nat", k[:]); err == nil && !bytes.Equal(v, want[:]) {
			err = fmt.Errorf("table-get %x: got %x, want %x", k, v, want)
		}
	case 4:
		k, v := w.newKey(), w.newValue()
		if err = w.client.TableAdd("nat", k[:], v[:]); err == nil {
			w.present.put(k, v)
		}
	case 5:
		k, ok := w.present.pick(w.rng)
		if !ok {
			break
		}
		if err = w.client.TableDel("nat", k[:]); err == nil {
			w.present.del(k)
		}
	}
	if err != nil {
		w.chk.failed++
		w.chk.failf("control session %d: %v", w.sessions, err)
	}
}

// reconcile drifts the wanted mappings, then converges the table to
// them with overlay.Controller's sequence. The dump must match what the
// loop wrote.
func (w *control) reconcile() error {
	for n := 1 + w.rng.Intn(4); n > 0; n-- {
		k, _ := w.want.pick(w.rng)
		w.want.del(k)
		w.want.put(w.newKey(), w.newValue())
	}
	entries, err := w.client.TableDump("nat")
	if err != nil {
		return err
	}
	cur := map[[4]byte][4]byte{}
	for _, e := range entries {
		cur[[4]byte(e.Key)] = [4]byte(e.Value)
	}
	if !maps.Equal(cur, w.present.vals) {
		return fmt.Errorf("table dump has %d entries, the loop wrote %d", len(cur), len(w.present.keys))
	}
	for _, k := range w.present.sorted() {
		if _, ok := w.want.vals[k]; !ok {
			if err := w.client.TableDel("nat", k[:]); err != nil {
				return err
			}
			w.present.del(k)
		}
	}
	for _, k := range w.want.sorted() {
		v := w.want.vals[k]
		if old, ok := cur[k]; !ok || old != v {
			if err := w.client.TableAdd("nat", k[:], v[:]); err != nil {
				return err
			}
			w.present.put(k, v)
		}
	}
	return nil
}

// push streams the image to the inactive slot, reboots into it and
// checks that it is active.
func (w *control) push() {
	target := 3 - w.slot // slots 1 and 2 alternate
	t0 := time.Now()
	err := w.client.PushBitstream(w.signed, target, false)
	if err == nil {
		err = w.client.Reboot(target)
	}
	w.pushes.add(float64(time.Since(t0).Nanoseconds()) / 1e6)
	if err == nil {
		var st mgmt.Stats
		st, err = w.client.ReadStats()
		if err == nil && (!st.Running || st.ActiveSlot != target) {
			err = fmt.Errorf("after reboot: running=%v active slot %d, want %d", st.Running, st.ActiveSlot, target)
		}
	}
	if err != nil {
		w.chk.failed++
		w.chk.failf("control push %d: %v", w.sessions, err)
		return
	}
	w.slot = target
	w.present.reset() // the rebooted app starts with empty tables
}

// rollout runs one fleet rollout and aggregation, then builds the next
// fleet.
func (w *control) rollout() int64 {
	c := daemon.NewFleetController(daemon.FleetConfig{
		Shards: w.shards, TargetSlot: 2,
		Canaries: fleetCanaries, WaveSize: fleetWaveSize, Bake: true,
		MaxFailureFrac: fleetShardGate, GlobalMaxFailureFrac: fleetGlobalGate,
	}, w.fleet)
	var before []int64
	if w.l != nil {
		before = w.tr.laneRoots()
		w.l.begin(w.rollL, rootID(uint64(w.fleetRuns)))
	}
	t0 := time.Now()
	rep := c.Rollout(w.fleetImg[1])
	if w.l != nil {
		crit := w.tr.busiest(before)
		w.l.addChild(crit)
		w.waveSum = append(w.waveSum, w.l.end()-crit)
		w.l.begin(w.aggL, 0)
	}
	snap, _ := c.AggregateTelemetry()
	if w.l != nil {
		w.aggNs = append(w.aggNs, w.l.end())
	}
	w.rolls.add(time.Since(t0).Seconds())
	w.lastRep = rep
	for _, cs := range snap.Counters {
		if cs.Name == "ota_retries" {
			w.retries += cs.Value
		}
	}
	// Ground truth, not the report: nobody ends on an unverifiable image
	// or wedged on the target.
	bad := 0
	for _, m := range w.fleet {
		sm := simMember(m)
		if sm.OnBadImage() || sm.Wedged() {
			bad++
		}
	}
	if bad != 0 || rep.BadEnd != 0 {
		w.chk.failed += int64(bad)
		w.chk.failf("fleet rollout %d: %d members left bad (report %d)", w.fleetRuns, bad, rep.BadEnd)
	}
	ops := int64(rep.Attempted) // fleet members the rollout attempted
	w.fleetRuns++
	if w.l != nil {
		w.l.begin(w.buildL, 0)
		w.buildFleet()
		w.l.end()
	} else {
		w.buildFleet()
	}
	return ops
}

func simMember(m daemon.FleetMember) *daemon.SimMember {
	if t, ok := m.(*timedMember); ok {
		return t.m.(*daemon.SimMember)
	}
	return m.(*daemon.SimMember)
}

func (w *control) warmup() error {
	for i := 0; i < ctlWarmup; i++ {
		w.session()
	}
	w.rollout()
	w.steps.reset()
	w.pushes.reset()
	w.rolls.reset()
	return nil
}

func (w *control) modeled() (metrics, string) {
	st := w.d.Design.Bitstream
	return metrics{}, fmt.Sprintf("app=%s v%d fleet=%+v keys=%x slot=%d", st.AppName, st.AppVersion, w.lastRep, w.present.sorted(), w.slot)
}

func (w *control) step() (int64, error) {
	fleet := w.rpcs >= int64(ctlFleetEvery)*int64(w.fleetRuns)
	if w.l != nil {
		if fleet {
			w.l.begin(w.fleetL, 0)
		} else {
			w.l.begin(w.opL, 0)
		}
		defer w.l.end()
	}
	if fleet {
		return w.rollout(), nil
	}
	before := w.rpcs
	w.session()
	return w.rpcs - before, nil
}

func (w *control) figures(m metrics) {
	m.set("workload.rpc_p50_us", w.steps.quantile(0.5), "us")
	m.set("workload.rpc_p99_us", w.steps.quantile(0.99), "us")
	var n int64
	var ns float64
	for _, v := range w.steps.v {
		ns += v * 1e3
		n++
	}
	m.set("workload.rpc_per_s", float64(n)/(ns/1e9), "1/s")
	m.set("workload.ota_push_ms", w.pushes.quantile(0.5), "ms")
	m.set("workload.rollout_s", w.rolls.quantile(0.5), "s")
}

func (w *control) finish() check {
	c := w.chk
	c.attempted = w.rpcs + int64(w.fleetRuns)*ctlFleetMembers
	return c
}

func (w *control) layers(tr *tracer, ops int64, m metrics) {
	m.set("fleet.push_us", tr.perCall("fleet.push")/1e3, "us")
	m.set("fleet.stats_us", tr.perCall("fleet.stats")/1e3, "us")
	m.set("fleet.reboot_us", tr.perCall("fleet.reboot")/1e3, "us")
	m.set("fleet.wave_self_ms", medianInt(w.waveSum)/1e6, "ms")
	m.set("fleet.aggregate_ms", medianInt(w.aggNs)/1e6, "ms")
	m.set("fleet.waves", float64(w.lastRep.Waves), "count")
	m.set("fleet.retries", float64(w.retries), "count")
	m.set("mgmt.client.retries", float64(w.client.Retries()), "count")
}

func (w *control) spanCounts() []spanCount { return nil }

func medianInt(v []int64) float64 {
	f := make([]float64, len(v))
	for i, x := range v {
		f[i] = float64(x)
	}
	return median(f)
}

// opClass names a captured request's op class ("" for classes the
// per-op metrics do not report).
func opClass(req []byte) string {
	msg, err := mgmt.DecodeMessage(req)
	if err != nil {
		return ""
	}
	switch msg.Type {
	case mgmt.MsgTableAdd:
		return "table_add"
	case mgmt.MsgTableGet:
		return "table_get"
	case mgmt.MsgTableDel:
		return "table_del"
	case mgmt.MsgTableDump:
		return "table_dump"
	case mgmt.MsgStats:
		return "stats"
	case mgmt.MsgTelemetry:
		return "telemetry"
	case mgmt.MsgXferChunk:
		return "xfer_chunk"
	case mgmt.MsgXferCommit:
		return "xfer_commit"
	case mgmt.MsgReboot:
		return "reboot"
	}
	return ""
}

func (w *control) replay(m metrics, budget time.Duration) error {
	each := budget / 6
	reqs := make([][]byte, len(w.captured))
	for i, r := range w.captured {
		reqs[i] = r.req
	}
	m.set("mgmt.codec_ns", replayLoop(len(reqs), each, func(i int) {
		msg, err := mgmt.DecodeMessage(reqs[i])
		if err == nil {
			msg.Encode()
		}
	}), "ns")

	// Agent.Handle per op class: the captured sequence, in order, into
	// the agent of a module built like the daemon's, draining the
	// simulator after each request as the daemon does.
	agentUs, err := replayAgent(w.seed, w.capturedOn, reqs, 2*each)
	if err != nil {
		return err
	}
	var transport, n float64
	for _, op := range agentOps {
		m.set("mgmt.agent."+op+"_us", agentUs[op], "us")
	}
	for _, r := range w.captured {
		if op := opClass(r.req); op != "" {
			transport += float64(r.ns)/1e3 - agentUs[op]
			n++
		}
	}
	if n > 0 {
		m.set("mgmt.transport_us", transport/n, "us")
	}
	m.set("bitstream.verify_us", replayLoop(1, each/2, func(int) { bitstream.Verify(w.signed, build.DefaultAuthKey) })/1e3, "us")
	reg := w.d.Registry()
	m.set("telemetry.snapshot_us", replayLoop(1, each/2, func(int) { reg.Snapshot() })/1e3, "us")

	var keys, vals [][]byte
	for _, r := range w.captured {
		if msg, err := mgmt.DecodeMessage(r.req); err == nil && msg.Type == mgmt.MsgTableAdd && len(keys) < 1024 {
			keys = append(keys, []byte{10, byte(len(keys) >> 8), byte(len(keys)), 1})
			vals = append(vals, []byte{203, 0, 113, 1})
		}
	}
	add, del, err := replayTableWrites(ppe.TableSpec{Name: "nat", Kind: ppe.TableExact, KeyBits: 32, ValueBits: 32, Size: apps.NATTableSize}, keys, vals, each/2)
	if err != nil {
		return err
	}
	m.set("ppe.table.add_us", add, "us")
	m.set("ppe.table.del_us", del, "us")
	return replaySetup(m, each, build.ModuleSpec{Name: "ctl", Shell: hls.TwoWayCore, App: "nat"})
}

// replayAgent replays reqs through a fresh agent whose NAT table starts
// with the entries of table, in rounds until budget, and returns the
// median µs per request of each op class. Every reply must be OK, as it
// was on the wire.
func replayAgent(seed int64, table kvSet, reqs [][]byte, budget time.Duration) (map[string]float64, error) {
	per := map[string][]float64{}
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < budget; round++ {
		sim := build.NewSim(seed)
		mod, _, err := build.Module(sim, build.ModuleSpec{Name: "ctl", DeviceID: 1, Shell: hls.TwoWayCore, App: "nat"})
		if err != nil {
			return nil, err
		}
		mod.SetTx(core.PortEdge, func([]byte) {})
		mod.SetTx(core.PortOptical, func([]byte) {})
		reg := telemetry.New()
		mod.AttachTelemetry(reg)
		agent := mgmt.NewAgent(mod)
		agent.SetTelemetry(reg)
		nat, ok := mod.App().State().Table("nat")
		if !ok {
			return nil, fmt.Errorf("nat table missing")
		}
		for _, k := range table.keys {
			v := table.vals[k]
			if err := nat.Add(k[:], v[:]); err != nil {
				return nil, err
			}
		}
		sum := map[string]float64{}
		cnt := map[string]float64{}
		for i, req := range reqs {
			op := opClass(req)
			t0 := time.Now()
			resp := agent.Handle(req)
			sim.Run()
			if msg, err := mgmt.DecodeMessage(resp); err != nil || msg.Type == mgmt.MsgError {
				return nil, fmt.Errorf("replayed request %d (%s): error reply", i, op)
			}
			if op != "" {
				sum[op] += us(time.Since(t0))
				cnt[op]++
			}
		}
		for op, s := range sum {
			per[op] = append(per[op], s/cnt[op])
		}
	}
	out := map[string]float64{}
	for op, v := range per {
		out[op] = median(v)
	}
	return out, nil
}

func (w *control) close() {
	if w.conn != nil {
		w.conn.Close()
	}
	if w.d != nil {
		w.d.Close()
	}
}

// timedMember spans a fleet member's operations on its shard's lane.
type timedMember struct {
	m      daemon.FleetMember
	l      *lane
	layers [4]int
}

func (t *timedMember) Name() string { return t.m.Name() }

func (t *timedMember) Push(signed []byte, slot int, rebootAfter bool) error {
	t.l.begin(t.layers[0], 0)
	defer t.l.end()
	return t.m.Push(signed, slot, rebootAfter)
}

func (t *timedMember) Stats() (mgmt.Stats, error) {
	t.l.begin(t.layers[1], 0)
	defer t.l.end()
	return t.m.Stats()
}

func (t *timedMember) Reboot(slot int) error {
	t.l.begin(t.layers[2], 0)
	defer t.l.end()
	return t.m.Reboot(slot)
}

func (t *timedMember) Telemetry() (telemetry.Snapshot, error) {
	t.l.begin(t.layers[3], 0)
	defer t.l.end()
	return t.m.Telemetry()
}
