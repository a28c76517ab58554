// Command perfbench is rocesim's benchmark: it runs one named workload
// from a seed, times the program's public entry points, checks the
// simulated output against a digest, and prints the end-to-end metrics
// (or, with -trace 1, the per-layer metrics) as one JSON object on the
// last line of standard output. See README.md beside this file.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench -workload storm -seed 1 -seconds 12 -trace 0
//
// Every pass over the workload runs in a child process of this one, so
// each measurement starts from a fresh heap and its peak resident memory
// is the child's own.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// outcome is what one child process reports.
type outcome struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Digest    string             `json:"digest"`
	SetupS    []float64          `json:"setup_s"`
	RunS      float64            `json:"run_s"`
	Events    uint64             `json:"events"`
	AllocMB   float64            `json:"alloc_mb"`
	GCCycles  uint32             `json:"gc_cycles"`
	Headline  []string           `json:"headline,omitempty"`
	Layer     map[string]float64 `json:"layer,omitempty"`
}

// child is one finished child process.
type child struct {
	mode   string
	out    outcome
	wall   float64
	cpu    float64 // user + system seconds
	rssMB  float64 // peak resident set
	crash  string
	shards int
}

func main() {
	workloadName := flag.String("workload", "", "workload to run: storm, fig7-1152, pingmesh-20k or transports-short")
	seed := flag.Int64("seed", 0, "seed the workload's inputs are made from (0: the workload's default)")
	seconds := flag.Int("seconds", 12, "measurement budget in seconds; at least one simulation always runs")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	childMode := flag.String("child", "", "internal: run one simulation pass in this process (run or trace)")
	shards := flag.Int("shards", -1, "internal: override the workload's shard count")
	flag.Parse()

	w := findWorkload(*workloadName)
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workloadName)
		os.Exit(2)
	}
	if *seed == 0 {
		*seed = w.defaultSeed
	}
	if *shards < 0 {
		*shards = w.shards
	}
	if *childMode != "" {
		os.Exit(childMain(w, *childMode, *seed, *shards))
	}
	os.Exit(parentMain(w, *seed, *shards, *seconds, *trace == 1))
}

// childMain runs one pass of the workload and writes its outcome as JSON
// on standard output.
func childMain(w *workload, mode string, seed int64, shards int) int {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var runs []simRun
	var tr *tracer
	var prof bytes.Buffer
	switch mode {
	case "run":
		runs = w.run(seed, shards)
	case "trace":
		tr = newTracer()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		runs = w.traced(seed, shards, tr)
		pprof.StopCPUProfile()
		tr.setPhase("replay")
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown child mode %q\n", mode)
		return 2
	}
	runtime.ReadMemStats(&m1)

	var o outcome
	o.AllocMB, o.GCCycles = memDelta(&m0, &m1)
	h := sha256.New()
	for _, r := range runs {
		h.Write([]byte(r.text))
		o.Attempted++
		if len(r.problems) > 0 {
			o.Failed++
			o.Problems = append(o.Problems, r.problems...)
		}
		o.SetupS = append(o.SetupS, r.setup)
		o.RunS += r.run
		o.Events += r.events
	}
	o.Digest = hex.EncodeToString(h.Sum(nil))
	if tr != nil {
		layer, notes, err := layerMetrics(w, tr, runs, prof.Bytes())
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		o.Layer, o.Headline = layer, notes
	} else {
		o.Headline = w.headline(runs)
	}
	if err := json.NewEncoder(os.Stdout).Encode(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// spawn runs one child pass and waits for it.
func spawn(w *workload, mode string, seed int64, shards int) child {
	self, err := os.Executable()
	c := child{mode: mode, shards: shards}
	if err != nil {
		c.crash = err.Error()
		return c
	}
	cmd := exec.Command(self, "-child", mode, "-workload", w.name,
		"-seed", strconv.FormatInt(seed, 10), "-shards", strconv.Itoa(shards))
	cmd.Stderr = os.Stderr
	// The pass dies with this process, so an interrupted run leaves
	// nothing behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	stdout, err := cmd.Output()
	c.wall = time.Since(start).Seconds()
	if st := cmd.ProcessState; st != nil {
		c.cpu = (st.UserTime() + st.SystemTime()).Seconds()
		if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
			c.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	if err != nil {
		c.crash = fmt.Sprintf("%s pass: %v", mode, err)
		return c
	}
	if err := json.Unmarshal(stdout, &c.out); err != nil {
		c.crash = fmt.Sprintf("%s pass: bad report: %v", mode, err)
	}
	return c
}

func parentMain(w *workload, seed int64, shards, seconds int, traced bool) int {
	facts, err := gatherHost(w, seed, shards)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	hostLine, _ := json.Marshal(facts)
	fmt.Println("host:", string(hostLine))

	var children []child
	if traced {
		children = append(children, spawn(w, "run", seed, shards), spawn(w, "trace", seed, shards))
		if w.sharded > shards {
			children = append(children, spawn(w, "run", seed, w.sharded))
		}
	} else {
		budget := time.Duration(seconds) * time.Second
		start := time.Now()
		for {
			c := spawn(w, "run", seed, shards)
			children = append(children, c)
			last := time.Duration(c.wall * float64(time.Second))
			if c.crash != "" || time.Since(start)+last > budget {
				break
			}
		}
	}

	attempted, failed, problems := verify(w, seed, children)
	for _, c := range children {
		fmt.Printf("pass %s shards=%d: wall=%.3fs run=%.3fs events=%d digest=%s\n",
			c.mode, c.shards, c.wall, c.out.RunS, c.out.Events, c.out.Digest)
		for _, l := range c.out.Headline {
			fmt.Println(l)
		}
	}
	for _, p := range problems {
		fmt.Println("FAIL:", p)
	}

	var metrics map[string]metric
	if traced {
		metrics = layerReport(children, attempted, failed)
	} else {
		var setups, runs, rss []float64
		for _, c := range children {
			if c.crash != "" {
				continue
			}
			setups = append(setups, c.out.SetupS...)
			runs = append(runs, c.out.RunS)
			rss = append(rss, c.rssMB)
		}
		metrics = map[string]metric{
			"setup_s":     {median(setups), "s"},
			"run_s":       {median(runs), "s"},
			"peak_rss_mb": {median(rss), "MB"},
		}
	}
	line, err := json.Marshal(result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// verify counts simulations attempted and failed across the passes. A
// pass fails whole when it crashed or its digest differs from the
// reference for this seed or from the first pass's (traced, untraced and
// sharded passes of one seed must all agree); otherwise each simulation
// fails on its own output check.
func verify(w *workload, seed int64, children []child) (attempted, failed int, problems []string) {
	ref, haveRef := reference(w.name, seed)
	first := ""
	for _, c := range children {
		if c.crash != "" {
			attempted++
			failed++
			problems = append(problems, c.crash)
			continue
		}
		attempted += c.out.Attempted
		switch {
		case haveRef && c.out.Digest != ref:
			failed += c.out.Attempted
			problems = append(problems, fmt.Sprintf("%s pass: digest %s differs from the reference %s for seed %d", c.mode, c.out.Digest, ref, seed))
		case first != "" && c.out.Digest != first:
			failed += c.out.Attempted
			problems = append(problems, fmt.Sprintf("%s pass (shards=%d): digest %s differs from the first pass's %s", c.mode, c.shards, c.out.Digest, first))
		default:
			failed += c.out.Failed
			problems = append(problems, c.out.Problems...)
		}
		if first == "" {
			first = c.out.Digest
		}
	}
	return attempted, failed, problems
}

// layerReport assembles the per-layer metrics of a traced run from its
// untraced pass, traced pass and (fig7-1152) sharded pass.
func layerReport(children []child, attempted, failed int) map[string]metric {
	vals := map[string]float64{"mismatch_rate": ratio(float64(failed), float64(attempted))}
	var plain, traced, sharded *child
	for i := range children {
		c := &children[i]
		switch {
		case c.crash != "":
		case c.mode == "trace":
			traced = c
		case c.mode == "run" && plain == nil:
			plain = c
		default:
			sharded = c
		}
	}
	if traced != nil {
		for k, v := range traced.out.Layer {
			vals[k] = v
		}
	}
	if plain != nil {
		vals["sim.events"] = float64(plain.out.Events)
		vals["sim.events_per_s"] = ratio(float64(plain.out.Events), plain.out.RunS)
		vals["gc.alloc_mb"] = plain.out.AllocMB
		vals["gc.cycles"] = float64(plain.out.GCCycles)
		vals["host.cpu_per_wall"] = ratio(plain.cpu, plain.wall)
		if traced != nil {
			vals["telemetry.trace_overhead"] = ratio(traced.out.RunS, plain.out.RunS)
		}
		if sharded != nil {
			vals["sim.shard_speedup"] = ratio(plain.out.RunS, sharded.out.RunS)
			vals["host.cpu_per_wall"] = ratio(sharded.cpu, sharded.wall)
		}
	}
	out := map[string]metric{}
	for _, lm := range layerMetricList() {
		out[lm.name] = metric{vals[lm.name], lm.unit}
	}
	return out
}

// gatherHost records the facts every report carries.
type hostFacts struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	SourceSHA  string `json:"source_sha256"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Shards     int    `json:"shards"`
}

func gatherHost(w *workload, seed int64, shards int) (hostFacts, error) {
	src, err := sourceFingerprint(".")
	if err != nil {
		return hostFacts{}, err
	}
	return hostFacts{
		CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: gitCommit("."), SourceSHA: src,
		Workload: w.name, Seed: seed, Shards: shards,
	}, nil
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
