// Command roce-health runs a fleet-health scenario through the full
// health plane — telemetry scraped into tiered time series, quantile
// sketches over pingmesh RTTs / flow completion times / buffer
// watermarks, SLO burn-rate objectives, and the ToR×ToR pingmesh
// heatmap — and renders the end-of-run health report. The same seed
// always renders byte-identical text and JSON; CI runs the report twice
// and diffs.
//
// The exit status is the paging contract: nonzero when any SLO breached
// during the run (suppress with -fail-on-breach=false when a breach is
// the scenario's point, as it is for pfc-storm), or when the report
// drifts from a stored -baseline beyond tolerance.
//
// Usage:
//
//	roce-health [-scenario pfc-storm] [-json] [-seed 1] [-duration 200]
//	            [-baseline report.json] [-tolerance 0.05] [-fail-on-breach]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"rocesim/internal/experiments"
	"rocesim/internal/health"
	"rocesim/internal/simtime"
)

// run executes the selected scenarios ("all" fans out) and returns
// their reports in scenario-list order.
func run(scenario string, seed int64, durationMS int64) ([]*health.Report, error) {
	names := []string{scenario}
	if scenario == "all" {
		names = experiments.HealthScenarios()
	}
	var out []*health.Report
	for _, n := range names {
		cfg := experiments.DefaultHealth(n)
		cfg.Seed = seed
		if durationMS > 0 {
			cfg.Duration = simtime.Duration(durationMS) * simtime.Millisecond
		}
		rep, err := experiments.RunHealth(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, rep)
	}
	return out, nil
}

// renderJSON produces exactly the bytes -json prints: the reports as an
// indented JSON array and a trailing newline.
func renderJSON(reports []*health.Report) ([]byte, error) {
	b, err := json.MarshalIndent(reports, "", "  ")
	return append(b, '\n'), err
}

func main() {
	scenario := flag.String("scenario", "all",
		fmt.Sprintf("scenario to run: %s, or all", strings.Join(experiments.HealthScenarios(), ", ")))
	jsonOut := flag.Bool("json", false, "emit the reports as a JSON array")
	seed := flag.Int64("seed", 1, "simulation seed")
	durationMS := flag.Int64("duration", 0, "run length in simulated ms (0 = scenario default)")
	baseline := flag.String("baseline", "", "golden report JSON to diff against")
	tolerance := flag.Float64("tolerance", 0.05, "relative drift tolerance for -baseline")
	failOnBreach := flag.Bool("fail-on-breach", true, "exit nonzero when an SLO breached")
	flag.Parse()

	reports, err := run(*scenario, *seed, *durationMS)
	if err != nil {
		fmt.Fprintln(os.Stderr, "roce-health:", err)
		os.Exit(2)
	}

	if *jsonOut {
		b, err := renderJSON(reports)
		if err != nil {
			fmt.Fprintln(os.Stderr, "roce-health:", err)
			os.Exit(2)
		}
		os.Stdout.Write(b)
	} else {
		for i, r := range reports {
			if i > 0 {
				fmt.Println()
			}
			fmt.Print(r.Text())
		}
	}

	fail := false
	if *baseline != "" {
		raw, err := os.ReadFile(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "roce-health:", err)
			os.Exit(2)
		}
		var base []*health.Report
		if err := json.Unmarshal(raw, &base); err != nil {
			fmt.Fprintln(os.Stderr, "roce-health: bad baseline:", err)
			os.Exit(2)
		}
		byScenario := make(map[string]*health.Report, len(base))
		for _, b := range base {
			byScenario[b.Scenario] = b
		}
		for _, r := range reports {
			b, ok := byScenario[r.Scenario]
			if !ok {
				fmt.Fprintf(os.Stderr, "roce-health: no baseline for %s\n", r.Scenario)
				fail = true
				continue
			}
			for _, d := range r.Diff(b, *tolerance) {
				fmt.Fprintf(os.Stderr, "roce-health: %s drifted: %s\n", r.Scenario, d)
				fail = true
			}
		}
	}
	if *failOnBreach {
		for _, r := range reports {
			if r.Breached {
				fmt.Fprintf(os.Stderr, "roce-health: %s: SLO breached\n", r.Scenario)
				fail = true
			}
		}
	}
	if fail {
		os.Exit(1)
	}
}
