package paper

// Golden-trace determinism for the parallel simulation core: the Shards
// knob is execution placement only, so for every experiment that takes
// it the full JSON envelope — params echo, metrics, detail — must be
// byte-identical to the default run (Shards 0) at every shard count and a
// fixed seed. Experiments that ignore it (linerate, reliability) are
// pinned the same way, so the knob cannot start to matter unnoticed.

import (
	"encoding/json"
	"testing"

	"flexsfp/internal/exp"
)

// envelopeJSON runs a registered experiment and marshals its envelope.
func envelopeJSON(t *testing.T, name string, ctx exp.RunContext) []byte {
	t.Helper()
	e, ok := exp.Default.Lookup(name)
	if !ok {
		t.Fatalf("experiment %q not registered", name)
	}
	res, err := e.Run(ctx)
	if err != nil {
		t.Fatalf("run %s: %v", name, err)
	}
	raw, err := json.Marshal(res.Envelope())
	if err != nil {
		t.Fatalf("marshal %s envelope: %v", name, err)
	}
	return raw
}

// TestShardsByteIdenticalJSON is the acceptance pin: for the sharded
// overlay experiments and for the two that ignore the knob, shards ∈ {1,
// 2, 4, 8} produce JSON byte-identical to the default run, which is what
// the goldens pin.
func TestShardsByteIdenticalJSON(t *testing.T) {
	for _, name := range []string{"linerate", "reliability", "overlay_linerate", "overlay_failover"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ref := envelopeJSON(t, name, exp.RunContext{Seed: 42})
			for _, shards := range []int{1, 2, 4, 8} {
				got := envelopeJSON(t, name, exp.RunContext{Seed: 42, Shards: shards})
				if string(got) != string(ref) {
					t.Fatalf("%s: shards=%d JSON differs from the default run\ndefault: %s\nshards=%d: %s",
						name, shards, ref, shards, got)
				}
			}
			// A different seed must change the output (the pin is not
			// comparing constants).
			other := envelopeJSON(t, name, exp.RunContext{Seed: 43, Shards: 4})
			if string(other) == string(ref) {
				t.Fatalf("%s: different seeds produced identical JSON", name)
			}
		})
	}
}

// TestShardsNotEchoedInParams guards the invariant that makes the
// byte-identity pin possible at all: Shards must never appear in the
// params echo (it is placement, not a model knob).
func TestShardsNotEchoedInParams(t *testing.T) {
	p, err := json.Marshal(exp.RunContext{Seed: 1, Shards: 8}.Params())
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(p, &m); err != nil {
		t.Fatal(err)
	}
	for k := range m {
		if k == "shards" {
			t.Fatal("Shards leaked into the params echo; sharded and unsharded envelopes can no longer be identical")
		}
	}
}

// TestReliabilityShardedMatchesDefault pins the stronger property the
// fleet experiment offers: its sharded execution reproduces the default
// (unsharded) envelope exactly, because the partition seeding is shared.
func TestReliabilityShardedMatchesDefault(t *testing.T) {
	def := envelopeJSON(t, "reliability", exp.RunContext{Seed: 42})
	sh := envelopeJSON(t, "reliability", exp.RunContext{Seed: 42, Shards: 8})
	if string(def) != string(sh) {
		t.Fatalf("sharded fleet envelope differs from default path\ndefault: %s\nsharded: %s", def, sh)
	}
}

// TestLineRateShardedTrials covers the multi-trial path: trials fan out
// across workers, each trial's sweep runs one simulator per case, and
// -shards 4 (ignored by linerate) leaves the reduction as the default
// run's.
func TestLineRateShardedTrials(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trial sharded sweep is slow")
	}
	a := envelopeJSON(t, "linerate", exp.RunContext{Seed: 7, Trials: 2})
	b := envelopeJSON(t, "linerate", exp.RunContext{Seed: 7, Trials: 2, Shards: 4})
	if string(a) != string(b) {
		t.Fatalf("multi-trial sharded sweep differs from the default run\ndefault: %s\nshards=4: %s", a, b)
	}
}

// TestWireRateParallelismInvariant: the wire-rate experiments run one
// simulator per case on the runner's pool, so their detail is identical
// at Parallelism 1 and 4. The catalog case also compares app by app, so
// the smoke gate can grep stable values.
func TestWireRateParallelismInvariant(t *testing.T) {
	for _, name := range []string{"linerate", "catalog", "pipeline_opt"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			e, ok := exp.Default.Lookup(name)
			if !ok {
				t.Fatalf("experiment %q not registered", name)
			}
			detail := func(parallelism int) any {
				res, err := e.Run(exp.RunContext{Seed: 7, Parallelism: parallelism})
				if err != nil {
					t.Fatalf("run %s at parallelism %d: %v", name, parallelism, err)
				}
				return res.Envelope().Detail
			}
			a, b := detail(1), detail(4)
			if ca, ok := a.(CatalogResult); ok {
				cb := b.(CatalogResult)
				if len(ca.Apps) != len(cb.Apps) {
					t.Fatalf("app count differs: %d vs %d", len(ca.Apps), len(cb.Apps))
				}
				for i := range ca.Apps {
					if ca.Apps[i] != cb.Apps[i] {
						t.Errorf("%s: results differ across parallelism:\n%+v\n%+v", ca.Apps[i].App, ca.Apps[i], cb.Apps[i])
					}
				}
			}
			ja, err := json.Marshal(a)
			if err != nil {
				t.Fatal(err)
			}
			jb, err := json.Marshal(b)
			if err != nil {
				t.Fatal(err)
			}
			if string(ja) != string(jb) {
				t.Fatalf("%s detail differs across parallelism\nparallel=1: %s\nparallel=4: %s", name, ja, jb)
			}
		})
	}
}
