// Package paper holds the FlexSFP evaluation suite: every table and
// figure of the paper (Tables 1–3, the §5 power measurement, the §5.1
// line-rate sweep, the §4.1 architecture comparison, the §5.3
// scalability/reliability studies, the §2 acceleration gap, the §2.1
// retrofit economics, the §6 form-factor and latency studies, and the
// §4.2 fault-injection chaos sweep) as self-registering
// internal/exp.Experiment plugins.
//
// Importing this package (even blank) populates exp.Default, which is
// how cmd/flexsfp-bench discovers them. Each experiment is addressable
// by name, takes every knob through exp.RunContext (seed, trials,
// parallelism, fault rate, clock/datapath overrides), and returns an
// exp.Result whose envelope carries headline metrics with 95% CIs and
// paper-reference deltas next to the full typed detail payload.
//
// linerate, catalog and pipeline_opt measure through one wire-rate
// harness (driveAtWireRate): one simulator per independent case. Only
// the overlay fabrics, whose partitions exchange frames, run on
// netsim.Sharded and honour RunContext.Shards.
//
// The exported *Experiment functions keep their historical signatures
// for callers that want a typed result without the registry.
package paper

import (
	"fmt"
	"net/netip"

	"flexsfp/internal/runner"
)

// fmtCI renders "mean ± ci95" the way the trial tables print metrics.
func fmtCI(s runner.Summary, digits int) string {
	return fmt.Sprintf("%.*f ± %.*f", digits, s.Mean, digits, s.CI95())
}

func mustAddr(s string) netip.Addr { return netip.MustParseAddr(s) }
