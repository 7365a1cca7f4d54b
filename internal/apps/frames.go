package apps

// frameRing is an app's fixed egress packet-buffer memory: a ring of
// preallocated cells that encap/decap output cycles through, the way a
// hardware pipeline owns a fixed SRAM buffer pool rather than allocating
// per frame. Steady-state take() never allocates, which is what lets the
// tunnel and mesh handlers pin to 0 allocs/op.
//
// A cell is reused after ringFrames further frames; callers downstream
// (links, meters) must consume a frame well within that window, which
// every simulated path does — in-flight depth is bounded by link queues
// that stay far below the ring size at line rate.
type frameRing struct {
	slots [][]byte
	next  int
}

const (
	// ringFrames is the cell count: the bound on concurrently in-flight
	// encapped/decapped frames per app instance.
	ringFrames = 256
	// ringSlotBytes is the cell capacity. Deliberately NOT equal to the
	// trafficgen pool's frame class (2048): trafficgen.PutBuffer admits
	// buffers by exact capacity, so ring cells handed to a PutBuffer
	// sink are ignored instead of being adopted by the generator pool
	// (which would alias two writers onto one backing array).
	ringSlotBytes = 1792
)

func newFrameRing() *frameRing {
	r := &frameRing{slots: make([][]byte, ringFrames)}
	for i := range r.slots {
		r.slots[i] = make([]byte, 0, ringSlotBytes)
	}
	return r
}

// copyIn copies b into the next cell and returns the cell. Oversized
// frames regrow the cell once and keep it (no steady-state cost unless
// frames exceed the cell class, which standard Ethernet + 50B encap never
// does).
func (r *frameRing) copyIn(b []byte) []byte {
	s := r.slots[r.next]
	if cap(s) < len(b) {
		s = make([]byte, 0, len(b))
		r.slots[r.next] = s
	}
	out := s[:len(b)]
	copy(out, b)
	r.next++
	if r.next == len(r.slots) {
		r.next = 0
	}
	return out
}
