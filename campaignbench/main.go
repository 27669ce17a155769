// Command campaignbench is the end-to-end benchmark of the SQLancer++
// reproduction. It runs one named workload through the system's public
// entry points, checks that the reports are correct, and prints its
// metrics as one JSON object on the last line of standard output. --seed
// and --seconds fix a run's work: as many campaigns or requests as the
// reference host completes in that many seconds.
//
//	campaignbench --workload campaign-serial --seed 7 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics (tracing off); with
// --trace 1 it runs the traced variant of the workload and prints the
// per-layer metrics instead. See README.md for the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Metric is one reported measurement.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's verdict line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	// Digest hashes the reports the seed fixes, whatever the timing.
	Digest string `json:"-"`
}

// params fixes the workload sizes. The defaults are the benchmark's;
// the self-test shrinks them.
type params struct {
	// SerialCases is the size of one campaign-serial campaign.
	SerialCases int
	// MinCases is the least work of a repeated-campaign run: it makes at
	// least enough campaigns to hold this many cases.
	MinCases int
	// RequestCases is the size of one shard-requests request (one epoch).
	RequestCases int
	// LearnCases is the per-dialect learning pass of shard-requests.
	LearnCases int
	// MinRequests is the least work of a shard-requests run.
	MinRequests int
	// ShardedCases is the size of one sharded-checkpoint campaign.
	ShardedCases int
	// SetupReps is how many times shard-requests repeats its learning
	// pass; setup_s counts the median.
	SetupReps int
	// ProbeSetup measures process start-up in child processes; without
	// it, setup_s counts this process's own start-up once, from the
	// initialization of package main.
	ProbeSetup bool
	// Workers is the client / shard-worker count (nproc).
	Workers int
	// Seconds sizes a run's work: as many campaigns or requests as the
	// reference host completes in this time (see nominalRates).
	Seconds float64
	// WorkDir holds checkpoints and the traced run's span files.
	WorkDir string
}

func defaultParams() params {
	return params{
		SerialCases:  10000,
		MinCases:     60000,
		RequestCases: 200,
		LearnCases:   1000,
		MinRequests:  360,
		ShardedCases: 20000,
		SetupReps:    3,
		ProbeSetup:   true,
		Workers:      runtime.NumCPU(),
		WorkDir:      ".bench_build",
	}
}

// processStart is when package main was initialized.
var processStart = time.Now()

// workload is one named benchmark workload.
type workload struct {
	name string
	// procs is the workload's GOMAXPROCS, 0 for the default (nproc).
	procs  int
	run    func(p params, seed int64) (*Result, error)
	traced func(p params, seed int64) (*Result, error)
}

// campaign-serial runs on one P. With two, its second CPU sits idle
// between the ~40 GC cycles a second and must be woken for each; on a
// shared virtual machine that wake-up waits for the hypervisor, so the
// serial campaign's speed swung by 30 % between ten-run sets as other
// guests' load came and went, where one P held within 5 %. The other
// workloads keep every CPU busy and run on nproc Ps.
var workloads = []workload{
	{"campaign-serial", 1, runCampaignSerial, traceCampaignSerial},
	{"shard-requests", 0, runShardRequests, traceShardRequests},
	{"sharded-checkpoint", 0, runShardedCheckpoint, traceShardedCheckpoint},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	name := flag.String("workload", "", "workload to run: campaign-serial, shard-requests or sharded-checkpoint")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 30, "run length in seconds on the reference host; sizes the work")
	trace := flag.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "campaignbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if w.procs > 0 {
		runtime.GOMAXPROCS(w.procs)
	}
	p := defaultParams()
	p.Seconds = *seconds
	printEnv(p)

	// A wedged run is a hang: report it as failed before the harness's
	// deadline instead of dying silently.
	watchdog := time.AfterFunc(170*time.Second-time.Since(processStart), func() {
		fmt.Println(`{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}`)
		fmt.Fprintln(os.Stderr, "campaignbench: run hung past 170 s")
		os.Exit(3)
	})

	if os.Getenv(setupProbeEnv) != "" {
		// A set-up probe stops where the run's first timed call would be.
		fmt.Println(setupReady)
		return
	}
	run := w.run
	if *trace == 1 {
		run = w.traced
	}
	steal, t0 := hostStealSeconds(), time.Now()
	res, err := run(p, *seed)
	watchdog.Stop()
	// Wall-clock metrics slow down while other guests hold the host's
	// CPUs; the steal puts a run's outlying figures in context.
	fmt.Printf("host steal %.2f s of CPU time in %.1f s of wall time\n",
		hostStealSeconds()-steal, time.Since(t0).Seconds())
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaignbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	fmt.Printf("run digest %s\n", res.Digest)
	if *trace == 1 {
		printPredictions(w.name, res.Metrics)
	}
	printTable(res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaignbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// printEnv prints the environment header every result is read against.
func printEnv(p params) {
	fmt.Printf("env: nproc=%d GOMAXPROCS=%d go=%s cpu=%q workers=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), p.Workers)
}

// cpuModel reads the CPU model name, or "unknown".
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

// printTable prints the metrics one per line, for people reading the log.
func printTable(res *Result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
}
