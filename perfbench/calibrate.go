package main

import (
	"math"
	"runtime/debug"
	"time"
)

// The development host shares its physical cores with other tenants, and
// floating-point-heavy code such as scene synthesis and the DCT runs up to
// 1.5x slower for tens of seconds at a time while they are busy. Raw wall
// times of identical sessions then spread far wider than any useful bound.
// The timed pass therefore runs a fixed calibration kernel at every slice
// stamp and after every set-up, and reports each host time scaled by
// calRefNs over the kernel's time measured next to it: the time the work
// would have taken at the host's reference speed. The kernel is benchmark
// code, identical on both sides of any comparison, and touches nothing of
// the session.
//
// The program's own garbage collector must not slow the kernel, or the
// scaling would divide an allocation regression out of the figures. The
// benchmark runs with one P, so no mark worker runs beside the kernel, and
// pauseGC keeps the collector off while the kernel runs: a collection in
// progress at a stamp is finished first, inside the slice it belongs to.

// calRefNs is about the kernel's time on the 2-CPU development host while
// no other tenant was busy, so scaled times read close to raw ones there.
const calRefNs = 6e5

var (
	calBlock [64]float64
	calBuf   [1 << 12]float64
	calSink  float64
)

func init() {
	for i := range calBlock {
		calBlock[i] = math.Cos(float64(i) * 0.1)
	}
	for i := range calBuf {
		calBuf[i] = float64(i % 255)
	}
}

// calibrate runs the kernel once and returns its wall time in ns: 8x8 block
// transforms with rounding over a cache-resident buffer, the instruction mix
// of the video layer's hot loops.
func calibrate() float64 {
	t0 := time.Now()
	s := 0.0
	for rep := 0; rep < calReps; rep++ {
		for b := 0; b+64 <= len(calBuf); b += 64 {
			blk := calBuf[b : b+64 : b+64]
			for u := 0; u < 8; u++ {
				for v := 0; v < 8; v++ {
					acc := 0.0
					for k := 0; k < 8; k++ {
						acc += blk[u*8+k] * calBlock[k*8+v]
					}
					blk[u*8+v] = math.Round(acc*0.125) - math.Floor(acc*0.125)
					s += acc
				}
			}
		}
	}
	calSink += s
	return float64(time.Since(t0))
}

// calReps sizes the kernel to about calRefNs on the development host.
const calReps = 14

// setupCals is how many calibrations scale one set-up. A set-up lasts a few
// milliseconds, so it is scaled by the median of several kernel runs taken
// right after it rather than by one.
const setupCals = 5

// pauseGC finishes any collection in progress and keeps a new one from
// starting until the returned function runs.
func pauseGC() (resume func()) {
	old := debug.SetGCPercent(-1)
	return func() { debug.SetGCPercent(old) }
}

// calibrateMedian runs the kernel n times and returns the median time in ns.
// The caller pauses the collector around it.
func calibrateMedian(n int) float64 {
	ts := make([]float64, n)
	for i := range ts {
		ts[i] = calibrate()
	}
	return quantile(ts, 0.5)
}

// calWindow is how many neighbouring calibrations are pooled (by median)
// to scale one slice: enough to damp the kernel's own jitter, few enough to
// follow the host's slower swings.
const calWindow = 9

// scaled returns raw[i] scaled to the reference speed by the median of the
// calibrations around slice i.
func scaled(raw, cals []float64) []float64 {
	out := make([]float64, len(raw))
	for i := range raw {
		lo, hi := max(0, i-calWindow/2), min(len(cals), i+calWindow/2+1)
		out[i] = raw[i] * calRefNs / quantile(cals[lo:hi], 0.5)
	}
	return out
}
