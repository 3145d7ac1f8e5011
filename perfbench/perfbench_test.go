package main

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"telepresence/internal/simtime"
)

// shortDur keeps the test sessions to about a second of host time each.
var shortDur = map[string]simtime.Duration{
	"sfu2d":    300 * simtime.Millisecond,
	"spatial5": 2 * simtime.Second,
	"lossy2d":  2 * simtime.Second,
}

// shortened returns a copy of w whose sessions last shortDur.
func shortened(w *workload) *workload {
	c := *w
	c.dur = shortDur[w.name]
	return &c
}

// The slice ticker observes without steering: apart from its own events the
// session runs exactly as without it, so the digests agree.
func TestTickerObservesWithoutSteering(t *testing.T) {
	for _, w := range workloads {
		w := shortened(w)
		seed := sessionSeed(defaultSeed, w, 0)
		off := runSession(w, seed, false)
		on := runSession(w, seed, true)
		if off.err != nil || on.err != nil {
			t.Fatalf("%s: ticker off: %v; on: %v", w.name, off.err, on.err)
		}
		if off.digest != on.digest {
			t.Errorf("%s: digest %s with the slice ticker, %s without", w.name, on.digest, off.digest)
		}
		if want := int(w.dur / sliceInterval); len(on.slices) != want {
			t.Errorf("%s: %d slices, want %d", w.name, len(on.slices), want)
		}
	}
}

// The same seed gives the same counts and digests; another seed gives other
// digests that still pass the invariants.
func TestSeedDeterminism(t *testing.T) {
	for _, w := range workloads {
		w := shortened(w)
		a := runSession(w, sessionSeed(defaultSeed, w, 0), true)
		b := runSession(w, sessionSeed(defaultSeed, w, 0), true)
		c := runSession(w, sessionSeed(defaultSeed+1, w, 0), true)
		for _, o := range []sessionOutcome{a, b, c} {
			if o.err != nil {
				t.Fatalf("%s: %v", w.name, o.err)
			}
		}
		if a.digest != b.digest || a.counts != b.counts {
			t.Errorf("%s: same seed, digests %s and %s, counts %+v and %+v", w.name, a.digest, b.digest, a.counts, b.counts)
		}
		if a.digest == c.digest {
			t.Errorf("%s: seeds %d and %d give the same digest %s", w.name, defaultSeed, defaultSeed+1, a.digest)
		}
	}
}

// Session seeds come round every seedCycle sessions, and the default seed's
// digests are pinned: a wrong reference digest fails its session.
func TestReferenceDigests(t *testing.T) {
	w, err := workloadByName("spatial5")
	if err != nil {
		t.Fatal(err)
	}
	refs, err := loadRefs(w, defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if got := sessionSeed(defaultSeed, w, seedCycle); got != sessionSeed(defaultSeed, w, 0) {
		t.Fatalf("session %d seed %d, want session 0's %d", seedCycle, got, sessionSeed(defaultSeed, w, 0))
	}
	if r := timedRun(w, defaultSeed, 0, refs, &strings.Builder{}); r.failed != 0 {
		t.Fatalf("pinned digests: %d of %d sessions failed: %v", r.failed, r.attempted, r.failures)
	}
	bad := append([]string(nil), refs...)
	bad[1] = "0000000000000000"
	r := timedRun(w, defaultSeed, 0, bad, &strings.Builder{})
	if r.failed != 1 || !strings.Contains(strings.Join(r.failures, "\n"), "reference 0000000000000000") {
		t.Fatalf("corrupted reference: %d of %d sessions failed (%v), want exactly session 1", r.failed, r.attempted, r.failures)
	}
}

// The traced replay follows each workload's session exactly: it sends the
// same frames and puts the same frames into the uplinks, whether it counts
// allocations or times its spans.
func TestReplayMirrorsSession(t *testing.T) {
	for _, w := range workloads {
		w := shortened(w)
		seed := sessionSeed(defaultSeed, w, 0)
		out := runSession(w, seed, false)
		if out.err != nil {
			t.Fatalf("%s: %v", w.name, out.err)
		}
		for _, countAllocs := range []bool{true, false} {
			tr := newTracer()
			tr.countAllocs = countAllocs
			r, done, err := replaySession(tr, w, seed, time.Now().Add(time.Minute))
			if err != nil || !done {
				t.Fatalf("%s: replay ended early (%v)", w.name, err)
			}
			if err := r.mirrors(out.counts); err != nil {
				t.Errorf("%s (allocation replay %v): %v", w.name, countAllocs, err)
			}
		}
	}
}

// Scaling to the reference speed keeps a slowdown the program causes: an
// allocation regression, stood in for by -perturb-alloc, must not slow the
// calibration kernel, or the scaling would divide the regression out.
// Sessions with and without it alternate, so a change in the host's speed
// falls on both. The kernel's time per session is raw over scaled run_s.
func TestScalingKeepsAllocationSlowdown(t *testing.T) {
	if testing.Short() {
		t.Skip("times sessions")
	}
	w, err := workloadByName("spatial5")
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as the benchmark runs
	defer func() { perturbNodes, perturbRing = 0, [perturbKeep]*perturbNode{} }()
	var raw, kernel [2][]float64
	for k := 0; k < 8; k++ {
		on := k % 2
		perturbNodes, perturbRing = on*60000, [perturbKeep]*perturbNode{}
		runtime.GC()
		out := runSession(w, sessionSeed(defaultSeed, w, 0), true)
		if out.err != nil {
			t.Fatal(out.err)
		}
		raw[on] = append(raw[on], out.rawRunS)
		kernel[on] = append(kernel[on], out.rawRunS/out.runS)
	}
	rawGrowth := quantile(raw[1], 0.5) / quantile(raw[0], 0.5)
	kernelGrowth := quantile(kernel[1], 0.5) / quantile(kernel[0], 0.5)
	t.Logf("raw run_s grew %.2fx, the kernel's time %.3fx", rawGrowth, kernelGrowth)
	if rawGrowth < 1.3 {
		t.Fatalf("the perturbation grew raw run_s only %.2fx", rawGrowth)
	}
	if kernelGrowth > 1.1 {
		t.Errorf("the perturbation slowed the calibration kernel %.3fx, so the scaling absorbs program slowdowns", kernelGrowth)
	}
}
