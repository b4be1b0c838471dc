// Command perfbench is the repository benchmark: three workloads that
// load different layers of the simulator, detector and daemon, an
// untraced pass that reports end-to-end metrics, and a traced pass
// that reports per-layer metrics. README.md beside this file gives
// each workload's reason and the metric → layer → end-to-end table.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload sweep-faulty-64 --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it carry
// the machine record and the exact simulated counts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is one invocation's configuration.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	workDir  string
	sizes    sizes
}

// sizes scales every workload. fullSizes is the benchmark (README.md
// gives the reasons for its grid size and arrival rate); the smoke
// test runs smokeSizes, which finish in seconds.
type sizes struct {
	setupReps int // set-ups timed per invocation; setup_s is their median

	sweepSeeds int // seeds per (bench, fault) cell of the sweep grid

	scaleRanks int // world size of scale-clean-16k
	scaleIters int // solver iterations per scale run

	daemonRate   float64 // job arrivals per second
	daemonCells  int     // distinct simulation cells the jobs cycle through
	streamRate   int     // stream samples per second
	streamBatch  int     // samples per Feed call
	readInterval time.Duration
	jobDeadline  time.Duration // latency limit: a later verdict counts as a failed job

	handoffTrips int // Suspend/Wake round trips per sim.handoff_ns repetition
}

var fullSizes = sizes{
	setupReps:    5,
	sweepSeeds:   24,
	scaleRanks:   16384,
	scaleIters:   30,
	daemonRate:   10,
	daemonCells:  60,
	streamRate:   2000,
	streamBatch:  100,
	readInterval: time.Second,
	jobDeadline:  5 * time.Second,
	handoffTrips: 100000,
}

var smokeSizes = sizes{
	setupReps:    2,
	sweepSeeds:   1,
	scaleRanks:   512,
	scaleIters:   10,
	daemonRate:   16,
	daemonCells:  6,
	streamRate:   2000,
	streamBatch:  100,
	readInterval: 250 * time.Millisecond,
	jobDeadline:  time.Minute, // loose enough for the race detector
	handoffTrips: 10000,
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(options) (*outcome, error){
	"sweep-faulty-64":   runSweep,
	"scale-clean-16k":   runScale,
	"daemon-open-mixed": runDaemon,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	secs := fs.Float64("seconds", 10, "measured time per pass, in seconds")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced pass")
	workDir := fs.String("workdir", ".bench_build/run", "directory for logs, journals, ledgers and span files")
	smoke := fs.Bool("smoke", false, "run the reduced sizes of the smoke test")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*wl]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *wl, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	opts := options{
		workload: *wl,
		seed:     *seed,
		seconds:  time.Duration(*secs * float64(time.Second)),
		trace:    *trace == 1,
		workDir:  *workDir,
		sizes:    fullSizes,
	}
	if *smoke {
		opts.sizes = smokeSizes
	}
	if err := os.MkdirAll(opts.workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	out, err := drive(opts)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := report(stdout, opts, out); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run hands back: the operation tally,
// the findings behind any failure, the exact simulated counts, and
// both metric sets (report prints the one the trace flag selects).
type outcome struct {
	attempted int
	failed    int
	correct   bool
	findings  []string

	// exact holds simulated counts and verdict digests that repeat
	// exactly at a fixed seed; they are printed on every run so that
	// two commits can be compared bit for bit.
	exact map[string]any

	endToEnd map[string]metric
	perLayer map[string]metric
	workers  int
}

func newOutcome(workers int) *outcome {
	return &outcome{
		correct:  true,
		exact:    map[string]any{},
		endToEnd: map[string]metric{},
		perLayer: map[string]metric{},
		workers:  workers,
	}
}

// fail records n failed operations. A wrong output also clears
// correct; refused or late operations only count as failed.
func (o *outcome) fail(n int, wrongOutput bool, format string, args ...any) {
	o.failed += n
	if wrongOutput {
		o.correct = false
	}
	if len(o.findings) < 20 {
		o.findings = append(o.findings, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) e2e(name, unit string, v float64)   { o.endToEnd[name] = metric{v, unit} }
func (o *outcome) layer(name, unit string, v float64) { o.perLayer[name] = metric{v, unit} }

func report(w io.Writer, opts options, out *outcome) error {
	mach, err := json.Marshal(machineRecord(out.workers))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "machine %s\n", mach)
	exact, err := json.Marshal(out.exact)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "exact %s %s seed=%d %s\n", opts.workload, traceName(opts.trace), opts.seed, exact)
	for _, f := range out.findings {
		fmt.Fprintf(w, "finding %s\n", f)
	}
	metrics := out.endToEnd
	if opts.trace {
		metrics = out.perLayer
		metrics["failed_share"] = metric{float64(out.failed) / float64(max(out.attempted, 1)), "share"}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.correct, out.attempted, out.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	return nil
}

func traceName(on bool) string {
	if on {
		return "traced"
	}
	return "untraced"
}

// machine is the record that lets a result be told apart from one
// taken on a different box.
type machine struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func machineRecord(workers int) machine {
	return machine{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    workers,
		GoVersion:  runtime.Version(),
		Kernel:     kernelRelease(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func kernelRelease() string {
	data, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}
