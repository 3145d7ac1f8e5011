// Command perfbench is the repository's call-level benchmark. It runs whole
// vca sessions of one workload back to back and reports end-to-end wall
// time, per-slice host time, allocation, peak memory and failures (the timed
// pass), or replays the workload's frame path through each layer's public
// functions with a span around every call (the traced pass). run.py builds
// it and runs the two passes in separate processes; README.md documents
// every metric.
//
//	perfbench -mode timed  -workload sfu2d -seed 1 -seconds 20 [-counts-out F] [-perturb-alloc N]
//	perfbench -mode traced -workload sfu2d -seed 1 -seconds 20 -counts-in F
//	perfbench -mode record -out refs.json
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"syscall"
)

//go:embed refs.json
var refsJSON []byte

// refFile is the layout of refs.json: the digest of every seed slot of every
// workload at defaultSeed.
type refFile struct {
	Seed    int64               `json:"seed"`
	Cycle   int                 `json:"cycle"`
	Digests map[string][]string `json:"digests"`
}

// metric is one reported value with its unit and sample count.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// host is the context every result is recorded with: numbers compare only
// within one host.
type host struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// result is the JSON line each pass prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Host      host              `json:"host"`
	Failures  []string          `json:"failures,omitempty"`
	// Raw holds the timed metrics as measured, before scaling to the
	// reference host speed (calibrate.go).
	Raw map[string]metric `json:"raw,omitempty"`
}

// countsFile is what the timed pass hands the traced pass: the per-session
// counters and run time that traced.coverage needs, and the counts of each
// of the first sessions, which the replay with the same seed must match.
type countsFile struct {
	Counts      counts   `json:"counts"`
	RunSMean    float64  `json:"run_s_mean"`
	RawRunSP50  float64  `json:"raw_run_s"`
	SessionsRun int      `json:"sessions"`
	Sessions    []counts `json:"per_session"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mode := fs.String("mode", "timed", "timed, traced or record")
	name := fs.String("workload", "sfu2d", "workload name")
	seed := fs.Int64("seed", defaultSeed, "benchmark seed")
	seconds := fs.Float64("seconds", 20, "wall seconds to measure")
	commit := fs.String("commit", "unknown", "commit recorded with the result")
	countsOut := fs.String("counts-out", "", "timed: also write the counters the traced pass needs to this file")
	countsIn := fs.String("counts-in", "", "traced: counters written by a timed pass of the same workload and seed")
	out := fs.String("out", "refs.json", "record: file to write the reference digests to")
	fs.IntVar(&perturbNodes, "perturb-alloc", 0, "timed: allocate this many extra 56-byte objects per slice (a stand-in program regression)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// The sessions are single-goroutine. With one P the program's garbage
	// collector runs in series with the session, so its cost counts in the
	// session's time, and it can never run beside the calibration kernel
	// and slow it as a busy sibling CPU would (calibrate.go).
	runtime.GOMAXPROCS(1)
	h := host{CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: *commit}
	if *mode == "record" {
		if err := record(*out, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	var res result
	switch *mode {
	case "timed":
		res, err = timedMain(w, *seed, *seconds, *countsOut, stderr)
	case "traced":
		res, err = tracedMain(w, *seed, *seconds, *countsIn, stderr)
	default:
		err = fmt.Errorf("unknown mode %q", *mode)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res.Host = h
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// loadRefs returns the pinned digests of w at seed, or nil when seed is not
// the default seed (other seeds are checked by invariants alone).
func loadRefs(w *workload, seed int64) ([]string, error) {
	if seed != defaultSeed {
		return nil, nil
	}
	var rf refFile
	if err := json.Unmarshal(refsJSON, &rf); err != nil {
		return nil, fmt.Errorf("refs.json: %w", err)
	}
	d := rf.Digests[w.name]
	if rf.Seed != defaultSeed || rf.Cycle != seedCycle || len(d) != seedCycle {
		return nil, fmt.Errorf("refs.json: no %d digests of %s at seed %d", seedCycle, w.name, defaultSeed)
	}
	return d, nil
}

func timedMain(w *workload, seed int64, seconds float64, countsOut string, log io.Writer) (result, error) {
	refs, err := loadRefs(w, seed)
	if err != nil {
		return result{}, err
	}
	r := timedRun(w, seed, seconds, refs, log)
	res := result{
		Correct:   r.failed == 0 && len(r.failures) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Failures:  r.failures,
		Metrics: map[string]metric{
			"setup_s":      {quantile(r.setupS, 0.5), "s", len(r.setupS)},
			"run_s":        {quantile(r.runS, 0.5), "s", len(r.runS)},
			"slice_p50_ms": {quantile(r.slices, 0.5), "ms", len(r.slices)},
			"slice_p90_ms": {quantile(r.slices, 0.9), "ms", len(r.slices)},
			"alloc_mb":     {quantile(r.allocB, 0.5) / 1e6, "MB", len(r.allocB)},
			"peak_rss_mb":  {r.peakRSSMB, "MB", 1},
			"ok_frac":      {float64(r.attempted-r.failed) / float64(r.attempted), "frac", r.attempted},
		},
		Raw: map[string]metric{
			"run_s":        {quantile(r.rawRunS, 0.5), "s", len(r.rawRunS)},
			"slice_p50_ms": {quantile(r.rawSlices, 0.5), "ms", len(r.rawSlices)},
			"slice_p90_ms": {quantile(r.rawSlices, 0.9), "ms", len(r.rawSlices)},
		},
	}
	if countsOut != "" {
		cf := countsFile{Counts: r.counts, RunSMean: mean(r.runS), SessionsRun: len(r.runS), RawRunSP50: quantile(r.rawRunS, 0.5), Sessions: r.checks}
		b, err := json.Marshal(cf)
		if err != nil {
			return result{}, err
		}
		if err := os.WriteFile(countsOut, b, 0o644); err != nil {
			return result{}, err
		}
	}
	return res, nil
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// record computes the digest of every seed slot of every workload at
// defaultSeed and writes them as refs.json. Re-record only when a change is
// meant to alter session behaviour.
func record(path string, log io.Writer) error {
	rf := refFile{Seed: defaultSeed, Cycle: seedCycle, Digests: map[string][]string{}}
	for _, w := range workloads {
		for k := 0; k < seedCycle; k++ {
			out := runSession(w, sessionSeed(defaultSeed, w, k), false)
			if out.err != nil {
				return fmt.Errorf("%s session %d: %w", w.name, k, out.err)
			}
			rf.Digests[w.name] = append(rf.Digests[w.name], out.digest)
			fmt.Fprintf(log, "%s %d %s\n", w.name, k, out.digest)
		}
	}
	b, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
