package netsim

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"flexsfp/internal/runner"
)

// Sharded is the conservatively-synchronized parallel simulation core: a
// topology partitioned across shards, each a full single-threaded
// Simulator (own event heap, clock, and SplitMix64-derived RNG stream),
// advanced together in bounded time windows.
//
// Synchronization is the classic lookahead/null-message discipline
// reduced to a window barrier: every cross-shard channel (Portal,
// usually a Link's propagation delay) declares a fixed positive latency,
// and the minimum latency L over all channels is the global lookahead. If
// the earliest pending event anywhere sits at time T, every shard may
// safely execute the window [T, T+L) in parallel — a message sent inside
// the window cannot arrive before T+L. At the window barrier, queued
// cross-shard messages are merged into the destination heaps and the next
// window starts. A topology with no cross-shard channels (disconnected
// partitions) has infinite lookahead: one window runs everything.
//
// Determinism is by construction, at any shard count including one:
//
//   - Shard assignment is a pure function of the logical partition index
//     (ShardFor), and per-shard seeds derive from (seed, shard) through
//     runner.TrialSeed.
//   - Model randomness must come from partition-keyed streams (Stream),
//     never from a shard's ambient RNG, so a partition's draws do not
//     depend on which shard hosts it or on its co-tenants.
//   - Cross-shard messages merge in (arrival time, portal id) order —
//     portal ids follow wiring order, which the topology fixes — and
//     window boundaries are global, so the interleaving of arrivals with
//     local events is identical for every shard count.
//   - Partitions may interact only through portals; two partitions must
//     never share mutable state directly.
//
// Under these rules the same seed produces byte-identical experiment
// output for shards ∈ {1, 2, 4, 8, ...}, which the golden-trace tests
// pin.
type Sharded struct {
	seed      int64
	shards    []*Simulator
	portals   []*Portal
	inbound   [][]*Portal // per destination shard, in portal-id order
	lookahead Duration    // min portal latency; 0 until a portal exists
}

// maxTime is the effectively-unbounded window limit used when no portal
// constrains progress.
const maxTime = Time(1) << 62

// streamSalt separates partition-stream seed derivation (Stream) from
// per-shard seed derivation (NewSharded), so a partition's stream never
// collides with a shard's ambient RNG.
const streamSalt = 0x73747265616d73 // "streams"

// NewSharded creates a parallel simulation world of n shards (clamped to
// at least one). Shard i starts at time zero with an RNG seeded
// runner.TrialSeed(seed, i).
func NewSharded(seed int64, n int) *Sharded {
	if n < 1 {
		n = 1
	}
	s := &Sharded{
		seed:    seed,
		shards:  make([]*Simulator, n),
		inbound: make([][]*Portal, n),
	}
	for i := range s.shards {
		s.shards[i] = New(runner.TrialSeed(seed, i))
	}
	return s
}

// Shards returns the shard count.
func (s *Sharded) Shards() int { return len(s.shards) }

// Shard returns shard i's Simulator. Entities built on it must only be
// touched from its own event callbacks once a Run variant is active.
func (s *Sharded) Shard(i int) *Simulator { return s.shards[i] }

// ShardFor maps a logical partition index to its home shard — the
// deterministic round-robin assignment every sharded workload uses.
func (s *Sharded) ShardFor(partition int) int { return partition % len(s.shards) }

// Stream returns the deterministic random stream for one logical
// partition. It is a pure function of (seed, partition) — independent of
// the shard count and of shard placement — which is what keeps sharded
// experiment output byte-identical at any parallelism. Model code under
// Sharded must draw from here, not from Simulator.Rand.
func (s *Sharded) Stream(partition int) *rand.Rand {
	return runner.TrialRand(s.seed^streamSalt, partition)
}

// Pending returns the total number of events waiting across all shards.
func (s *Sharded) Pending() int {
	n := 0
	for _, sim := range s.shards {
		n += sim.Pending()
	}
	return n
}

// Fired returns the total number of events executed across all shards.
func (s *Sharded) Fired() uint64 {
	var n uint64
	for _, sim := range s.shards {
		n += sim.Fired()
	}
	return n
}

// Now returns the maximum shard clock — the frontier the world has
// reached. Individual shards may trail it by up to the lookahead.
func (s *Sharded) Now() Time {
	var max Time
	for _, sim := range s.shards {
		if sim.Now() > max {
			max = sim.Now()
		}
	}
	return max
}

// AlignClocks advances every shard to the maximum shard clock (executing
// any events at or before it) and returns that common epoch. Sharded
// workloads call it after wiring-time activity (module boots consume
// different amounts of simulated time on different shards) so that
// measurement windows start at the same instant everywhere. Must be
// called between Run invocations, never from inside an event.
func (s *Sharded) AlignClocks() Time {
	epoch := s.Now()
	for _, sim := range s.shards {
		sim.RunUntil(epoch)
	}
	return epoch
}

// Connect creates a cross-shard message channel from src to dst with the
// given fixed latency. The latency must be positive: it is the channel's
// contribution to the conservative lookahead, and a zero-latency channel
// would forbid any parallel progress. deliver runs on the destination
// shard at the arrival time. Wiring-time only — portals must exist before
// the first Run variant and their creation order must be a fixed property
// of the topology (it breaks arrival-time ties).
func (s *Sharded) Connect(src, dst int, latency Duration, deliver func([]byte)) *Portal {
	if latency <= 0 {
		panic("netsim: portal latency must be positive (it is the conservative lookahead)")
	}
	if src < 0 || src >= len(s.shards) || dst < 0 || dst >= len(s.shards) {
		panic(fmt.Sprintf("netsim: portal %d→%d outside shard range [0,%d)", src, dst, len(s.shards)))
	}
	p := &Portal{
		id:      len(s.portals),
		src:     src,
		dst:     dst,
		latency: latency,
		srcSim:  s.shards[src],
		dstSim:  s.shards[dst],
		deliver: deliver,
		ring:    make([]portalMsg, portalRingSize),
	}
	s.portals = append(s.portals, p)
	s.inbound[dst] = append(s.inbound[dst], p)
	if s.lookahead == 0 || latency < s.lookahead {
		s.lookahead = latency
	}
	return p
}

// ConnectLink builds a Link on the src shard whose frames cross to dst
// through a portal: serialization happens on src as usual, and the
// propagation delay rides the portal as lookahead, delivering on the dst
// shard. prop must be positive (see Connect).
func (s *Sharded) ConnectLink(src, dst int, bitsPerSec int64, prop Duration, deliver func([]byte)) *Link {
	p := s.Connect(src, dst, prop, deliver)
	l := NewLink(s.shards[src], bitsPerSec, prop, nil)
	l.remote = p
	return l
}

// Run executes events on all shards until every heap is empty and every
// portal has drained.
func (s *Sharded) Run() { s.run(0, false) }

// RunUntil executes all events at or before t on every shard, then
// advances every shard clock to exactly t.
func (s *Sharded) RunUntil(t Time) { s.run(t, true) }

// RunFor executes events for a span d beyond the current frontier (Now).
func (s *Sharded) RunFor(d Duration) { s.RunUntil(s.Now().Add(d)) }

// run is the conservative window loop. Each round: find the earliest
// pending event time T anywhere, grant every shard the window [T, end)
// where end = T + lookahead (unbounded when no portals exist), execute
// the windows in parallel, then merge queued cross-shard messages at the
// barrier. Progress is guaranteed because the event at T always fires.
func (s *Sharded) run(limit Time, bounded bool) {
	n := len(s.shards)
	if n == 1 && len(s.portals) == 0 {
		// Degenerate fast path: a plain single-threaded run. No windows,
		// no barriers — this is what keeps shards=1 within noise of the
		// pre-sharding simulator.
		if bounded {
			s.shards[0].RunUntil(limit)
		} else {
			s.shards[0].Run()
		}
		return
	}

	var (
		work []chan Time
		wg   *sync.WaitGroup
	)
	defer func() {
		for _, ch := range work {
			close(ch)
		}
	}()
	for {
		// Drain first: messages queued at wiring time (or by the previous
		// window) become heap events before the global minimum is taken,
		// so they both count toward T and fire inside this run.
		s.drain()
		T, ok := s.nextEventAt()
		if !ok || (bounded && T > limit) {
			break
		}
		end := maxTime
		if len(s.portals) > 0 {
			end = T.Add(s.lookahead)
		}
		if bounded && end > limit+1 {
			end = limit + 1 // RunUntil is inclusive: fire events at == limit
		}
		if n == 1 {
			s.shards[0].runBefore(end)
			continue
		}
		if work == nil {
			// Per-call worker goroutines, started with the first window so
			// a Run with nothing pending (flexsfpd calls Run after every
			// mgmt RPC) spawns none: each owns one shard for the rest of
			// the Run invocation and executes the windows the coordinator
			// hands it. The WaitGroup barrier gives the happens-before
			// edges that make barrier-phase access to shard heaps and
			// portal free lists safe. wg is passed, not captured, so the
			// empty path allocates nothing.
			work, wg = make([]chan Time, n), new(sync.WaitGroup)
			for i := range work {
				work[i] = make(chan Time, 1)
				go func(sim *Simulator, ch <-chan Time, wg *sync.WaitGroup) {
					for end := range ch {
						sim.runBefore(end)
						wg.Done()
					}
				}(s.shards[i], work[i], wg)
			}
		}
		wg.Add(n)
		for _, ch := range work {
			ch <- end
		}
		wg.Wait()
	}
	if bounded {
		for _, sim := range s.shards {
			if sim.now < limit {
				sim.now = limit
			}
		}
	}
}

// nextEventAt returns the earliest pending event time across all shards.
func (s *Sharded) nextEventAt() (Time, bool) {
	var (
		min Time
		ok  bool
	)
	for _, sim := range s.shards {
		if t, has := sim.nextAt(); has && (!ok || t < min) {
			min, ok = t, true
		}
	}
	return min, ok
}

// drain runs at each window barrier on the coordinator: it moves every
// queued cross-shard message into its destination heap, merging each
// shard's inbound portals in (arrival time, portal id) order so the
// sequence numbers arrivals receive — and therefore same-time ordering —
// are a deterministic function of the topology, not of shard placement.
func (s *Sharded) drain() {
	for d := range s.inbound {
		in := s.inbound[d]
		if len(in) == 0 {
			continue
		}
		for {
			var (
				best    *Portal
				bestMsg portalMsg
			)
			// Strict < keeps the lowest-id portal on arrival-time ties
			// (inbound is in ascending portal-id order).
			for _, p := range in {
				if msg, ok := p.peekMsg(); ok && (best == nil || msg.at < bestMsg.at) {
					best, bestMsg = p, msg
				}
			}
			if best == nil {
				break
			}
			best.popMsg()
			best.scheduleArrival(bestMsg)
		}
	}
}

// portalRingSize is the SPSC ring capacity (messages per window per
// portal) before the producer spills to its overflow slice. Must be a
// power of two.
const portalRingSize = 1024

// portalMsg is one queued cross-shard frame.
type portalMsg struct {
	at   Time
	data []byte
}

// Portal is a unidirectional cross-shard channel with fixed latency. The
// source shard produces into a lock-free SPSC ring during window
// execution; the coordinator consumes at the window barrier and schedules
// arrival events on the destination shard. Steady-state Send and delivery
// are allocation-free: ring slots are values and arrival records recycle
// through a per-portal free list, so the pooled fast paths inside each
// shard (link frames, engine completions) stay intact across the shard
// boundary.
type Portal struct {
	id      int
	src     int
	dst     int
	latency Duration
	srcSim  *Simulator
	dstSim  *Simulator
	deliver func([]byte)

	// SPSC ring: the source worker stores and publishes via tail, the
	// coordinator consumes via head. head ≤ tail always; both only grow.
	ring []portalMsg
	head atomic.Uint64
	tail atomic.Uint64

	// spill absorbs windows that queue more than the ring capacity. Only
	// the producer appends (during a window) and only the coordinator
	// reads (at the barrier), with the barrier's happens-before between.
	spill    []portalMsg
	spillPos int

	// free recycles arrival events on the destination side. Pushed by
	// arrival.Complete (destination worker, inside a window) and popped
	// by scheduleArrival (coordinator, at the barrier); the phases never
	// overlap.
	free *arrival

	sent uint64
}

// Latency returns the portal's fixed crossing latency (its lookahead
// contribution).
func (p *Portal) Latency() Duration { return p.latency }

// Sent returns how many messages have entered the portal.
func (p *Portal) Sent() uint64 { return p.sent }

// Send queues data for delivery on the destination shard at the source
// shard's current time plus the portal latency. It must be called from
// the source shard (wiring-time or one of its event callbacks). The data
// slice is retained until the deliver callback runs.
func (p *Portal) Send(data []byte) {
	m := portalMsg{at: p.srcSim.now.Add(p.latency), data: data}
	t := p.tail.Load()
	if t-p.head.Load() < uint64(len(p.ring)) {
		p.ring[t&uint64(len(p.ring)-1)] = m
		p.tail.Store(t + 1)
	} else {
		p.spill = append(p.spill, m)
	}
	p.sent++
}

// peekMsg returns the oldest queued message without consuming it.
// Coordinator-only, at a barrier. Ring entries always precede spill
// entries: the producer only spills while the ring is full.
func (p *Portal) peekMsg() (portalMsg, bool) {
	if h := p.head.Load(); h != p.tail.Load() {
		return p.ring[h&uint64(len(p.ring)-1)], true
	}
	if p.spillPos < len(p.spill) {
		return p.spill[p.spillPos], true
	}
	return portalMsg{}, false
}

// popMsg consumes the message peekMsg returned. Coordinator-only.
func (p *Portal) popMsg() {
	if h := p.head.Load(); h != p.tail.Load() {
		p.ring[h&uint64(len(p.ring)-1)] = portalMsg{}
		p.head.Store(h + 1)
		return
	}
	p.spill[p.spillPos] = portalMsg{}
	p.spillPos++
	if p.spillPos == len(p.spill) {
		p.spill, p.spillPos = p.spill[:0], 0
	}
}

// scheduleArrival schedules the message's delivery on the destination
// shard through a pooled arrival record (no closure, no allocation in
// steady state).
func (p *Portal) scheduleArrival(m portalMsg) {
	a := p.free
	if a != nil {
		p.free = a.next
		a.next = nil
	} else {
		a = &arrival{p: p}
	}
	a.data = m.data
	p.dstSim.ScheduleCompletionAt(m.at, a)
}

// arrival is the pooled destination-side record of one queued message; it
// implements Completer so delivery rides the simulator's typed-event fast
// path.
type arrival struct {
	p    *Portal
	data []byte
	next *arrival
}

// Complete delivers the frame on the destination shard.
func (a *arrival) Complete() {
	p := a.p
	data := a.data
	// Recycle before delivering: the record's state is fully copied out,
	// so a delivery that triggers further sends may reuse it.
	a.data = nil
	a.next = p.free
	p.free = a
	p.deliver(data)
}
