package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden snapshot")

// TestGoldenJSON pins the complete -json output for seed 1: both
// scenarios are byte-deterministic, so any diff against the golden copy
// is a real behavior change. Regenerate with `go test
// ./cmd/roce-health -run TestGoldenJSON -update` and review the diff.
func TestGoldenJSON(t *testing.T) {
	reports, err := run("all", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := renderJSON(reports)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("reports drifted from %s (%d vs %d bytes); rerun with -update if intentional",
			golden, len(got), len(want))
	}
}

// TestReportsByteDeterministic is the acceptance gate: both scenarios,
// run twice from the same seed, render byte-identical text AND JSON
// reports — the property `make health` re-checks on the built binary.
func TestReportsByteDeterministic(t *testing.T) {
	r1, err := run("all", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := run("all", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) != 2 || len(r2) != 2 {
		t.Fatalf("got %d/%d reports, want 2", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i].Text() != r2[i].Text() {
			t.Fatalf("%s text not byte-deterministic:\n--- run1\n%s--- run2\n%s",
				r1[i].Scenario, r1[i].Text(), r2[i].Text())
		}
		j1, err := r1[i].JSON()
		if err != nil {
			t.Fatal(err)
		}
		j2, _ := r2[i].JSON()
		if string(j1) != string(j2) {
			t.Fatalf("%s JSON not byte-deterministic", r1[i].Scenario)
		}
		if d := r1[i].Diff(r2[i], 0.001); len(d) != 0 {
			t.Fatalf("%s self-diff: %v", r1[i].Scenario, d)
		}
	}
}

// TestScenarioVerdicts pins the scenarios' contracts: the PFC storm
// must breach its SLOs (and the report must say which and when), the
// IRN rack pair must ride out its corrupted cable clean.
func TestScenarioVerdicts(t *testing.T) {
	reports, err := run("all", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]bool{}
	for _, r := range reports {
		byName[r.Scenario] = r.Breached
	}
	if !byName["pfc-storm"] {
		t.Error("pfc-storm did not breach any SLO")
	}
	if byName["rack-pair-irn"] {
		t.Error("rack-pair-irn breached an SLO; IRN should absorb the corruption")
	}
	for _, r := range reports {
		txt := r.Text()
		for _, want := range []string{"objectives:", "distributions:", "heatmap", "pause-rate-ceiling", "goodput-floor-500mbps"} {
			if !strings.Contains(txt, want) {
				t.Errorf("%s report missing %q:\n%s", r.Scenario, want, txt)
			}
		}
		if r.Scrapes == 0 {
			t.Errorf("%s: no scrapes ran", r.Scenario)
		}
		if len(r.Series) == 0 {
			t.Errorf("%s: no series scraped", r.Scenario)
		}
	}
	// The storm's breach must be attributable to the fault window
	// ([T/4, 3T/4) = [50ms, 150ms) at the default 200ms duration).
	for _, r := range reports {
		if r.Scenario != "pfc-storm" {
			continue
		}
		if !strings.Contains(r.Text(), "BREACH") {
			t.Error("pfc-storm text verdict is not BREACH")
		}
		sawBreachInWindow := false
		for _, a := range r.Alerts {
			if !a.Cleared && a.AtNs >= 50e6 && a.AtNs < 150e6 {
				sawBreachInWindow = true
			}
		}
		if !sawBreachInWindow {
			t.Errorf("pfc-storm breach alerts outside fault window: %+v", r.Alerts)
		}
	}
}

// TestUnknownScenario: bad -scenario surfaces an error, not a panic.
func TestUnknownScenario(t *testing.T) {
	if _, err := run("nope", 1, 0); err == nil {
		t.Fatal("unknown scenario did not error")
	}
}
