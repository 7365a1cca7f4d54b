package paper

import (
	"fmt"
	"sort"

	"flexsfp/internal/apps"
	"flexsfp/internal/build"
	"flexsfp/internal/exp"
	"flexsfp/internal/fpga"
	"flexsfp/internal/hls"
	"flexsfp/internal/trafficgen"
)

// ---------------------------------------------------------------------------
// App-catalog registry sweep: every registered application priced on the
// MPF200T and driven at 10G with a protocol-matched traffic profile. This
// is the §3 "diverse use cases inside the cable" claim made measurable:
// each app must (a) fit the device next to the two-way shell and (b) the
// edge-protocol apps must hold line rate on the blend they exist for.

// CatalogAppRow is one app's fit and line-rate measurement.
type CatalogAppRow struct {
	App           string  `json:"app"`
	Profile       string  `json:"profile"`
	PipelineDepth int     `json:"pipeline_depth"`
	LUT4          int     `json:"lut4"`
	LSRAM         int     `json:"lsram"`
	USRAM         int     `json:"usram"`
	UtilMaxPct    float64 `json:"util_max_pct"`
	Fits          bool    `json:"fits"`
	OfferedPPS    float64 `json:"offered_pps"`
	DeliveredPPS  float64 `json:"delivered_pps"`
	Drops         uint64  `json:"drops"`
	LineRate      bool    `json:"line_rate"`
}

// CatalogResult is the registry sweep.
type CatalogResult struct {
	Apps []CatalogAppRow `json:"apps"`
	// FitsAll: every app + TwoWayCore shell fits the MPF200T.
	FitsAll bool `json:"fits_all"`
	// NewAppsLineRate: the edge-protocol trio holds line rate on its
	// matched profile (the xdp interpreter is program-bound and exempt,
	// like in the pipeline_opt experiment).
	NewAppsLineRate bool `json:"new_apps_line_rate"`
}

// newCatalogApps are the apps the line-rate gate applies to.
var newCatalogApps = map[string]bool{"arpguard": true, "dhcpsnoop": true, "dnsblock": true}

// catalogProfile matches each app to the traffic blend that exercises
// its tables; everything without a protocol of its own gets the
// heavy-tail TCP mix.
func catalogProfile(app string) trafficgen.Profile {
	switch app {
	case "arpguard":
		return trafficgen.ProfileARPStorm
	case "dhcpsnoop":
		return trafficgen.ProfileDHCPChurn
	case "dnsblock", "dohblock":
		return trafficgen.ProfileDNSEdge
	}
	return trafficgen.ProfileElephantMice
}

// Catalog runs the registry sweep: every app drives its matched profile
// through the wire-rate harness, then is priced from the program its
// module booted.
func Catalog(ctx exp.RunContext) (CatalogResult, error) {
	names := apps.NewRegistry().Names()
	sort.Strings(names)
	drives := make([]wireDrive, len(names))
	// Apps on one profile share its templates: generators only read them.
	tmpls := map[trafficgen.Profile][]trafficgen.WeightedFrame{}
	for i, name := range names {
		cfg, err := apps.CanonicalConfig(name)
		if err != nil {
			return CatalogResult{}, err
		}
		prof := catalogProfile(name)
		if tmpls[prof] == nil {
			if tmpls[prof], err = trafficgen.ProfileTemplates(prof, 0); err != nil {
				return CatalogResult{}, err
			}
		}
		drives[i] = wireDrive{
			Module: build.ModuleSpec{
				Name: "cat-" + name, DeviceID: 1, Shell: hls.TwoWayCore, App: name,
				ClockHz: ctx.ClockHz, DatapathBits: ctx.DatapathBits,
				Optimize: ctx.Optimize, Config: cfg,
			},
			Traffic: trafficgen.Config{Templates: tmpls[prof]},
		}
	}
	runs, err := driveAtWireRate(ctx, drives)
	if err != nil {
		return CatalogResult{}, err
	}
	res := CatalogResult{Apps: make([]CatalogAppRow, len(names)), FitsAll: true, NewAppsLineRate: true}
	for i, name := range names {
		run := runs[i]
		// Resource fit: shell + estimated program against the MPF200T.
		used := hls.ShellResources(hls.TwoWayCore).Add(hls.EstimateProgram(&run.Program, build.BaseDatapathBits))
		util := fpga.MPF200T.Utilization(used).Max()
		r := CatalogAppRow{App: name, Profile: string(catalogProfile(name)), UtilMaxPct: util, Fits: util <= 100}
		r.PipelineDepth = run.Program.PipelineDepth(build.BaseDatapathBits)
		r.LUT4, r.LSRAM, r.USRAM = used.LUT4, used.LSRAM, used.USRAM
		r.OfferedPPS, r.DeliveredPPS, r.Drops = run.OfferedPPS, run.DeliveredPPS, run.Drops
		// The blocking apps drop frames by design; line rate here means
		// the queue never overflowed, exactly like the §5.1 sweep.
		r.LineRate = r.Drops == 0
		res.Apps[i] = r
		if !r.Fits {
			res.FitsAll = false
		}
		if newCatalogApps[r.App] && !r.LineRate {
			res.NewAppsLineRate = false
		}
	}
	return res, nil
}

// Render formats the sweep.
func (r CatalogResult) Render() string {
	t := exp.NewTable("App", "Profile", "Depth", "4LUT", "LSRAM", "Util%", "Offered (Mpps)", "Delivered (Mpps)", "Drops", "Line rate?")
	for _, a := range r.Apps {
		ok := "yes"
		if !a.LineRate {
			ok = "NO"
		}
		t.Add(a.App, a.Profile, a.PipelineDepth, a.LUT4, a.LSRAM,
			fmt.Sprintf("%.1f", a.UtilMaxPct),
			fmt.Sprintf("%.3f", a.OfferedPPS/1e6),
			fmt.Sprintf("%.3f", a.DeliveredPPS/1e6),
			a.Drops, ok)
	}
	return "App catalog (§3): per-app resource fit + line rate on matched profiles\n" + t.String()
}

// runCatalog is the registered entry point.
func runCatalog(ctx exp.RunContext) (exp.Result, error) {
	r, err := Catalog(ctx)
	if err != nil {
		return nil, err
	}
	fitsAll, newLR, lineRateApps := 0.0, 0.0, 0.0
	if r.FitsAll {
		fitsAll = 1
	}
	if r.NewAppsLineRate {
		newLR = 1
	}
	for _, a := range r.Apps {
		if a.LineRate {
			lineRateApps++
		}
	}
	env := exp.Envelope{
		Name: "catalog", Params: ctx.Params(), Detail: r,
		Metrics: []exp.Metric{
			exp.Scalar("catalog_apps", "", float64(len(r.Apps))),
			exp.Scalar("fits_all", "bool", fitsAll),
			exp.Scalar("new_apps_line_rate", "bool", newLR),
			exp.Scalar("line_rate_apps", "", lineRateApps),
		},
	}
	return exp.NewResult(env, r.Render), nil
}
