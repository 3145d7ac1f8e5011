package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"telepresence/internal/simtime"
	"telepresence/internal/vca"
)

// sliceInterval is the virtual span one slice sample covers.
const sliceInterval = 100 * simtime.Millisecond

// minSlices is the fewest slices a timed run pools. p90 needs ten samples
// above it; twice that keeps sfu2d's p90, which sits just below its
// keyframe slices, from swinging between runs.
const minSlices = 200

// minSessions is the fewest sessions a timed run completes; the count
// metrics are means over exactly this many, so they depend on the seed only.
const minSessions = 3

// setupOnly is how many sessions a timed run builds and discards before its
// first measured session, so setup_s is a median over enough set-ups even
// on the workload whose sessions are slowest.
const setupOnly = 8

// sliceTicker stamps host time every sliceInterval of virtual time on a
// session's scheduler and calibrates the host's speed right after each
// stamp, with the collector paused (calibrate.go). It only reads the clock,
// so the session behaves exactly as without it apart from the ticker's own
// events (TestTickerObservesWithoutSteering). The calibration kernel runs
// between two slices and counts in neither.
type sliceTicker struct {
	last  time.Time
	fires uint64
	raw   []float64 // host ms per slice as measured
	cals  []float64 // calibration after each slice, ns
}

func startSliceTicker(s *vca.Session, dur simtime.Duration) *sliceTicker {
	n := int(dur/sliceInterval) + 2
	st := &sliceTicker{raw: make([]float64, 0, n), cals: make([]float64, 0, n)}
	simtime.NewTicker(s.Scheduler(), sliceInterval, func(simtime.Time) {
		resume := pauseGC()
		st.raw = append(st.raw, float64(time.Since(st.last))/1e6)
		st.cals = append(st.cals, calibrate())
		resume()
		st.fires++
		st.last = time.Now()
		if perturbNodes > 0 {
			perturb(int(st.fires))
		}
	})
	return st
}

// perturbNodes, when positive, makes every slice allocate that many small
// pointer-holding objects on top of the session's own work and keep them
// alive for perturbKeep slices: a stand-in for an allocation regression in
// the program, which adds both allocation and GC marking to the session's
// time. It is set only by -perturb-alloc, to check that scaling to the
// reference speed does not divide such a slowdown out (README.md).
var perturbNodes int

const perturbKeep = 8

type perturbNode struct {
	next *perturbNode
	pad  [6]uintptr
}

var perturbRing [perturbKeep]*perturbNode

func perturb(slice int) {
	var head *perturbNode
	for i := 0; i < perturbNodes; i++ {
		head = &perturbNode{next: head}
	}
	perturbRing[slice%perturbKeep] = head
}

// sessionOutcome is what one timed session contributes to the run.
type sessionOutcome struct {
	setupS, runS float64 // at reference speed when the ticker ran
	rawRunS      float64
	allocB       uint64
	slices       []float64
	rawSlices    []float64
	digest       string
	counts       counts
	err          error
}

// counts are the deterministic per-session work counters read from the
// session's public accessors after Run.
type counts struct {
	Events       float64 `json:"simtime.events"`
	NetemSent    float64 `json:"netem.sent"`
	NetemDropped float64 `json:"netem.dropped"`
	// UplinkSent and UplinkBytes are what entered the participants' own
	// access links, which the traced replay must reproduce.
	UplinkSent  float64 `json:"netem.uplink_sent"`
	UplinkBytes float64 `json:"netem.uplink_bytes"`
	FramesSent  float64 `json:"vca.frames_sent"`
	// FramesExpected is the frames receivers could have decoded: every
	// sent frame once per remote receiver.
	FramesExpected float64 `json:"vca.frames_expected"`
	FramesDecoded  float64 `json:"vca.frames_decoded"`
	Unavailable    float64 `json:"vca.unavailable_frac"`
	Missed         float64 `json:"recovery.missed"`
	Repaired       float64 `json:"recovery.repaired"`
	Overhead       float64 `json:"recovery.overhead_frac"`
	TargetBps      float64 `json:"ratecontrol.target_bps"`
}

func (c *counts) fields() []*float64 {
	return []*float64{&c.Events, &c.NetemSent, &c.NetemDropped, &c.UplinkSent, &c.UplinkBytes, &c.FramesSent, &c.FramesExpected,
		&c.FramesDecoded, &c.Unavailable, &c.Missed, &c.Repaired, &c.Overhead, &c.TargetBps}
}

func (c *counts) add(o counts) {
	of := o.fields()
	for i, p := range c.fields() {
		*p += *of[i]
	}
}

func (c *counts) scale(f float64) {
	for _, p := range c.fields() {
		*p *= f
	}
}

// runSession builds, runs and checks one session. A panic anywhere in it is
// reported as the session's error.
func runSession(w *workload, seed int64, ticker bool) (out sessionOutcome) {
	defer func() {
		if r := recover(); r != nil {
			out.err = fmt.Errorf("panic: %v", r)
		}
	}()
	t0 := time.Now()
	s, err := w.build(seed, w.dur)
	resume := pauseGC()
	out.setupS = time.Since(t0).Seconds()
	if err == nil && ticker {
		out.setupS *= calRefNs / calibrateMedian(setupCals)
	}
	resume()
	if err != nil {
		out.err = err
		return out
	}
	var st *sliceTicker
	if ticker {
		st = startSliceTicker(s, w.dur)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var fires uint64
	if st == nil {
		t1 := time.Now()
		res := s.Run()
		out.runS = time.Since(t1).Seconds()
		out.rawRunS = out.runS
		runtime.ReadMemStats(&after)
		out.allocB = after.TotalAlloc - before.TotalAlloc
		out.digest, out.counts, out.err = inspect(s, res, s.Scheduler().Steps())
		return out
	}
	st.last = time.Now()
	res := s.Run()
	// Run's time is its slices plus the tail after the last stamp, which
	// counts as one more slice.
	resume = pauseGC()
	st.raw = append(st.raw, float64(time.Since(st.last))/1e6)
	st.cals = append(st.cals, calibrate())
	resume()
	runtime.ReadMemStats(&after)
	out.allocB = after.TotalAlloc - before.TotalAlloc
	all := scaled(st.raw, st.cals)
	out.runS, out.rawRunS = sum(all)/1e3, sum(st.raw)/1e3
	n := len(st.raw) - 1
	out.slices, out.rawSlices, fires = all[:n], st.raw[:n], st.fires
	out.digest, out.counts, out.err = inspect(s, res, s.Scheduler().Steps()-fires)
	return out
}

// inspect digests a finished session, reads its counters and checks the
// invariants that hold at any seed. steps is the scheduler's event count
// without the benchmark's own ticker events.
func inspect(s *vca.Session, res *vca.Results, steps uint64) (string, counts, error) {
	h := sha256.New()
	var c counts
	n := len(res.Users)
	for _, u := range res.Users {
		fmt.Fprintf(h, "user %s %d %d %d %d %d %d %v %v %d\n", u.ID, u.FramesSent, u.FramesDecoded,
			u.FramesUndecodable, u.FramesThinned, u.PacketsRepaired, u.PacketsUnrepaired,
			u.UnavailableFrac, u.MeanFrameLatencyMs, u.Protocol)
		fmt.Fprintf(h, "up %v\ndown %v\n", u.Uplink.Values(), u.Downlink.Values())
		c.FramesSent += float64(u.FramesSent)
		c.FramesExpected += float64(u.FramesSent * (n - 1))
		c.FramesDecoded += float64(u.FramesDecoded)
		c.Unavailable += u.UnavailableFrac / float64(n)
	}
	var errs []string
	// In a P2P call each user's downlink is the peer's uplink, so the
	// uplinks alone cover every link once.
	p2p := s.Plan().P2P
	for i := 0; i < n; i++ {
		links := []string{"up", "down"}
		if p2p {
			links = links[:1]
		}
		for _, dir := range links {
			ls := s.UplinkStats(i)
			if dir == "down" {
				ls = s.DownlinkStats(i)
			}
			fmt.Fprintf(h, "link %d %s %+v\n", i, dir, ls)
			c.NetemSent += float64(ls.SentFrames)
			if dir == "up" {
				c.UplinkSent += float64(ls.SentFrames)
				c.UplinkBytes += float64(ls.SentBytes)
			}
			c.NetemDropped += float64(ls.DroppedQueue + ls.DroppedLoss)
			if ls.DeliveredFrames+ls.DroppedQueue+ls.DroppedLoss > ls.SentFrames {
				errs = append(errs, fmt.Sprintf("link %d %s: delivered %d + dropped %d > sent %d", i, dir,
					ls.DeliveredFrames, ls.DroppedQueue+ls.DroppedLoss, ls.SentFrames))
			}
		}
	}
	fmt.Fprintf(h, "steps %d\n", steps)
	c.Events = float64(steps)
	for j, u := range res.Users {
		remote := 0
		for i, v := range res.Users {
			if i != j {
				remote += v.FramesSent
			}
		}
		if u.FramesDecoded > remote {
			errs = append(errs, fmt.Sprintf("user %d decoded %d > remote sent %d", j, u.FramesDecoded, remote))
		}
		if !(u.UnavailableFrac >= 0 && u.UnavailableFrac <= 1) {
			errs = append(errs, fmt.Sprintf("user %d unavailable frac %v outside [0,1]", j, u.UnavailableFrac))
		}
	}
	for i := 0; i < n; i++ {
		if st, ok := s.RecoverySenderStats(i); ok {
			fmt.Fprintf(h, "rsend %d %+v\n", i, st)
			c.Overhead += s.RecoveryOverheadRatio(i) / float64(n)
		}
		for j := 0; j < n; j++ {
			rst, ok := s.RecoveryReceiverStats(i, j)
			if !ok {
				continue
			}
			fmt.Fprintf(h, "rrecv %d %d %+v\n", i, j, rst)
			c.Missed += float64(rst.Missed)
			c.Repaired += float64(rst.RepairedRtx + rst.RepairedFec)
			if rst.RepairedRtx+rst.RepairedFec+rst.Unrepaired > rst.Missed {
				errs = append(errs, fmt.Sprintf("stream %d->%d: repaired %d + unrepaired %d > missed %d", i, j,
					rst.RepairedRtx+rst.RepairedFec, rst.Unrepaired, rst.Missed))
			}
		}
		fmt.Fprintf(h, "rate %d %v %v\n", i, s.RateTargetMeanBps(i), s.RateTargetBps(i))
		c.TargetBps += s.RateTargetMeanBps(i) / float64(n)
	}
	digest := hex.EncodeToString(h.Sum(nil))[:16]
	if len(errs) > 0 {
		return digest, c, fmt.Errorf("invariants: %v", errs)
	}
	return digest, c, nil
}

// timedResult is everything a timed run measured.
type timedResult struct {
	attempted, failed int
	setupS, runS      []float64
	rawRunS           []float64
	allocB            []float64
	slices            []float64
	rawSlices         []float64
	counts            counts // mean over the first minSessions sessions
	// checks holds the counts of the first seedCycle sessions, in run
	// order, for the traced replay to reproduce.
	checks    []counts
	peakRSSMB float64
	failures  []string
}

// timedRun runs sessions of w back to back in this goroutine until at least
// seconds of wall time, minSlices slices and minSessions sessions have
// passed. refs, when non-nil, holds the pinned digest of each seed slot.
func timedRun(w *workload, benchSeed int64, seconds float64, refs []string, log io.Writer) timedResult {
	var r timedResult
	for k := 0; k < setupOnly; k++ {
		t0 := time.Now()
		_, err := w.build(sessionSeed(benchSeed, w, k), w.dur)
		resume := pauseGC()
		r.setupS = append(r.setupS, time.Since(t0).Seconds()*calRefNs/calibrateMedian(setupCals))
		resume()
		if err != nil {
			r.failures = append(r.failures, fmt.Sprintf("set-up %d: %v", k, err))
		}
	}
	seen := make([]string, seedCycle)
	start := time.Now()
	for k := 0; time.Since(start).Seconds() < seconds || len(r.slices) < minSlices || k < minSessions; k++ {
		// Every session starts from a collected heap, so one session's
		// garbage does not land in the next one's timings.
		runtime.GC()
		slot := k % seedCycle
		out := runSession(w, sessionSeed(benchSeed, w, k), true)
		r.attempted++
		r.setupS = append(r.setupS, out.setupS)
		err := out.err
		if err == nil {
			r.runS = append(r.runS, out.runS)
			r.rawRunS = append(r.rawRunS, out.rawRunS)
			r.rawSlices = append(r.rawSlices, out.rawSlices...)
			r.allocB = append(r.allocB, float64(out.allocB))
			r.slices = append(r.slices, out.slices...)
			switch {
			case seen[slot] != "" && seen[slot] != out.digest:
				err = fmt.Errorf("digest %s differs from %s of the same seed earlier in this run", out.digest, seen[slot])
			case refs != nil && refs[slot] != out.digest:
				err = fmt.Errorf("digest %s differs from reference %s", out.digest, refs[slot])
			}
			seen[slot] = out.digest
		}
		if k < minSessions {
			r.counts.add(out.counts)
		}
		if k < seedCycle {
			r.checks = append(r.checks, out.counts)
		}
		if err != nil {
			r.failed++
			r.failures = append(r.failures, fmt.Sprintf("session %d: %v", k, err))
		}
		fmt.Fprintf(log, "session %d seed-slot %d setup %.4fs run %.3fs (raw %.3fs) digest %s\n", k, slot, out.setupS, out.runS, out.rawRunS, out.digest)
	}
	r.counts.scale(1.0 / minSessions)
	r.peakRSSMB = peakRSSMB()
	return r
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	f := pos - float64(lo)
	return s[lo]*(1-f) + s[lo+1]*f
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
