package faults

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Cell is one scored (scenario, fault) run.
type Cell struct {
	Scenario string `json:"scenario"`
	Fault    string `json:"fault"`
	// Transport is the fabric contract the scenario ran under:
	// "pfc+dcqcn", "irn-no-pfc" or "irn+ecn".
	Transport string `json:"transport"`

	// Detection: did the cell's "incident" objective breach at or after
	// fault onset, how long after, and on which device.
	Detected   bool    `json:"detected"`
	DetectMS   float64 `json:"detect_ms"`
	DetectedBy string  `json:"detected_by,omitempty"`

	// SLODetectNs is the health plane's time-to-detect: nanoseconds from
	// fault onset to the burn-rate engine's first SLO breach. 0 means the
	// breach was already open at onset and never cleared; -1 means no
	// objective breached during the run.
	SLODetectNs int64 `json:"sloDetectNs"`

	// Throughput of the measured streams before, during and after the
	// fault window.
	BaselineGbps float64 `json:"baseline_gbps"`
	DuringGbps   float64 `json:"during_gbps"`
	AfterGbps    float64 `json:"after_gbps"`

	// Recovery: did throughput return to RecoveredFrac × baseline before
	// the run ended, and how long after fault onset the last degraded
	// window closed.
	Recovered  bool    `json:"recovered"`
	RecoveryMS float64 `json:"recovery_ms"`

	// Residual damage: invariant-auditor violations and flag families,
	// and config-store drift entries left at end of run.
	Violations uint64 `json:"violations"`
	Flags      int    `json:"flags"`
	Drifts     int    `json:"drifts"`

	// Safeguards that demonstrably acted, the one this fault was
	// expected to exercise, and whether it did.
	Safeguards  []string `json:"safeguards"`
	Expect      string   `json:"expect"`
	ExpectFired bool     `json:"expect_fired"`

	// Dump is the flight-recorder tail for unrecovered cells. It is
	// excluded from JSON (and so from goldens) because it is large;
	// DumpLines records its size.
	Dump      string `json:"-"`
	DumpLines int    `json:"dump_lines,omitempty"`
}

// Name is the cell's matrix coordinate.
func (c Cell) Name() string { return c.Scenario + "/" + c.Fault }

// Scorecard is a campaign's full result.
type Scorecard struct {
	Seed  int64  `json:"seed"`
	Cells []Cell `json:"cells"`
}

// Unrecovered returns the cells that ended below the recovery floor.
func (s *Scorecard) Unrecovered() []Cell {
	var out []Cell
	for _, c := range s.Cells {
		if !c.Recovered {
			out = append(out, c)
		}
	}
	return out
}

// Failed reports whether any cell missed its expected safeguard. An
// unrecovered cell is only a failure if its safeguard also failed to
// fire — the campaign deliberately includes unprotected cells.
func (s *Scorecard) Failed() bool {
	for _, c := range s.Cells {
		if c.Expect != "" && !c.ExpectFired {
			return true
		}
	}
	return false
}

// JSON renders the scorecard as stable, indented JSON.
func (s *Scorecard) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// Text renders the scorecard as a fixed-width survivability table.
func (s *Scorecard) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos campaign (seed %d): %d cells\n\n", s.Seed, len(s.Cells))
	fmt.Fprintf(&b, "%-34s %9s %9s %8s %8s %8s %9s %6s %6s  %s\n",
		"cell", "detect", "slo", "base", "during", "after", "recover", "viol", "drift", "safeguards")
	for _, c := range s.Cells {
		det := "-"
		if c.Detected {
			det = fmt.Sprintf("%.1fms", c.DetectMS)
		}
		slo := "-"
		if c.SLODetectNs >= 0 {
			slo = fmt.Sprintf("%.1fms", float64(c.SLODetectNs)/1e6)
		}
		rec := "STUCK"
		if c.Recovered {
			rec = fmt.Sprintf("%.1fms", c.RecoveryMS)
		}
		sg := strings.Join(c.Safeguards, ",")
		if sg == "" {
			sg = "-"
		}
		mark := " "
		if c.Expect != "" {
			if c.ExpectFired {
				mark = "+"
			} else {
				mark = "!"
			}
		}
		fmt.Fprintf(&b, "%-34s %9s %9s %8.1f %8.1f %8.1f %9s %6d %6d %s %s (want %s)\n",
			c.Name(), det, slo, c.BaselineGbps, c.DuringGbps, c.AfterGbps,
			rec, c.Violations, c.Drifts, mark, sg, c.Expect)
	}
	if un := s.Unrecovered(); len(un) > 0 {
		fmt.Fprintf(&b, "\nunrecovered: ")
		names := make([]string, len(un))
		for i, c := range un {
			names[i] = c.Name()
		}
		fmt.Fprintf(&b, "%s\n", strings.Join(names, ", "))
	}
	return b.String()
}

// WriteDumps writes the flight-recorder dumps of unrecovered cells.
func (s *Scorecard) WriteDumps(w io.Writer) error {
	for _, c := range s.Unrecovered() {
		if c.Dump == "" {
			continue
		}
		if _, err := fmt.Fprintf(w, "\n=== flight recorder: %s ===\n%s", c.Name(), c.Dump); err != nil {
			return err
		}
	}
	return nil
}
