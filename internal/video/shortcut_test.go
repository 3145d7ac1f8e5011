package video

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"telepresence/internal/simrand"
)

// fdct8Ref, idct8Ref and codeBlockRef are the transforms and the quantize
// loop exactly as they were before codeBlock's zero-AC certificate and
// idct8's zero-column skip: every block pays the full forward transform,
// the full quantize loop and the dense inverse transform. The shortcuts
// must reproduce their body bytes and reconstructed pixels exactly.
func fdct8Ref(block *[64]float64) {
	var tmp [64]float64
	for y := 0; y < 8; y++ {
		row := (*[8]float64)(block[y*8 : y*8+8])
		for k := 0; k < 8; k++ {
			tmp[y*8+k] = dot8(row, &dctCos[k]) * dctC(k)
		}
	}
	var col [8]float64
	for x := 0; x < 8; x++ {
		for n := 0; n < 8; n++ {
			col[n] = tmp[n*8+x]
		}
		for k := 0; k < 8; k++ {
			block[k*8+x] = dot8(&col, &dctCos[k]) * dctC(k)
		}
	}
}

func idct8Ref(block *[64]float64) {
	var tmp [64]float64
	var scaled [8]float64
	for x := 0; x < 8; x++ {
		for k := 0; k < 8; k++ {
			scaled[k] = dctC(k) * block[k*8+x]
		}
		for n := 0; n < 8; n++ {
			tmp[n*8+x] = dot8(&scaled, &dctCosT[n])
		}
	}
	for y := 0; y < 8; y++ {
		row := (*[8]float64)(tmp[y*8 : y*8+8])
		for k := 0; k < 8; k++ {
			scaled[k] = dctC(k) * row[k]
		}
		for n := 0; n < 8; n++ {
			block[y*8+n] = dot8(&scaled, &dctCosT[n])
		}
	}
}

func codeBlockRef(body []byte, block *[64]float64, q *[64]float64) []byte {
	var vbuf [binary.MaxVarintLen64]byte
	putUv := func(v uint64) {
		n := binary.PutUvarint(vbuf[:], v)
		body = append(body, vbuf[:n]...)
	}
	zig := func(v int32) uint64 { return uint64(uint32(v<<1) ^ uint32(v>>31)) }
	fdct8Ref(block)
	run := 0
	for _, zi := range zigzagOrder {
		c := int32(math.Round(block[zi] / q[zi]))
		block[zi] = float64(c) * q[zi]
		if c == 0 {
			run++
			continue
		}
		putUv(uint64(run))
		putUv(zig(c))
		run = 0
	}
	putUv(uint64(run) | 1<<20)
	idct8Ref(block)
	return body
}

// blockChecker codes residual blocks both ways and compares the results.
type blockChecker struct {
	t                 *testing.T
	certified, blocks int
	got, want         []byte
}

// check codes the residual x (cur − 128 for a keyframe, cur − prev for a
// delta block) at qscale with codeBlock and with codeBlockRef, and fails
// unless the body bytes and the reconstructed pixels (residual + 128 or
// + prev, through clamp255) match.
func (c *blockChecker) check(x *[64]int, prev *[64]uint8, key bool, qscale float64) {
	c.t.Helper()
	q := quantTable(qscale)
	acZero := acZeroBound(&q)
	var fast, ref [64]float64
	sum, sumSq := 0, 0
	for i, v := range x {
		fast[i], ref[i] = float64(v), float64(v)
		sum += v
		sumSq += v * v
	}
	if float64(64*sumSq-sum*sum) < acZero {
		c.certified++
	}
	c.blocks++
	c.got = codeBlock(c.got[:0], &fast, sum, sumSq, &q, acZero)
	c.want = codeBlockRef(c.want[:0], &ref, &q)
	if string(c.got) != string(c.want) {
		c.t.Fatalf("qscale %v key %v block %v: body %x, want %x", qscale, key, *x, c.got, c.want)
	}
	for i := range fast {
		base := 128.0
		if !key {
			base = float64(prev[i])
		}
		if g, w := clamp255(fast[i]+base), clamp255(ref[i]+base); g != w {
			c.t.Fatalf("qscale %v key %v block %v: pixel %d = %d, want %d", qscale, key, *x, i, g, w)
		}
	}
}

// randomBlock fills x (and prev, for a delta block) with a residual of the
// given spread around a random level, as camera noise over smooth content
// produces.
func randomBlock(rng *simrand.Source, x *[64]int, prev *[64]uint8, key bool, spread int) {
	level := rng.Intn(256)
	shift := rng.Intn(2*spread+1) - spread
	for i := range x {
		cur := level + rng.Intn(2*spread+1) - spread
		if key {
			x[i] = clampPix(cur) - 128
			continue
		}
		p := clampPix(level + rng.Intn(2*spread+1) - spread)
		prev[i] = uint8(p)
		x[i] = clampPix(cur+shift) - p
	}
}

func clampPix(v int) int { return min(255, max(0, v)) }

// residualFor fills prev so that prev + x stays a valid pixel and reports
// whether x is a valid residual in the given mode.
func residualFor(rng *simrand.Source, x *[64]int, prev *[64]uint8, key bool) bool {
	for i, v := range x {
		if key {
			if v < -128 || v > 127 {
				return false
			}
			continue
		}
		lo, hi := max(0, -v), min(255, 255-v)
		if lo > hi {
			return false
		}
		prev[i] = uint8(lo + rng.Intn(hi-lo+1))
	}
	return true
}

// TestCodeBlockMatchesReference checks codeBlock's certified path and its
// zero-column inverse against the reference transforms on random integer
// blocks over the whole rate-control range (qscale 0.02–10), in keyframe
// and delta modes, plus two adversarial families: blocks whose AC energy
// lies within 1e-3 of the certificate's bound, and blocks whose DC term
// sits on a quantizer rounding tie.
func TestCodeBlockMatchesReference(t *testing.T) {
	n := 2_000_000
	if testing.Short() {
		n = 200_000
	}
	rng := simrand.New(17)
	c := &blockChecker{t: t}
	var x [64]int
	var prev [64]uint8
	spreads := []int{0, 1, 2, 3, 5, 8, 16, 32, 64, 128, 255}
	for i := 0; i < n; i++ {
		key := i%2 == 0
		qscale := 0.02 * math.Pow(500, rng.Float64())
		randomBlock(rng, &x, &prev, key, spreads[rng.Intn(len(spreads))])
		c.check(&x, &prev, key, qscale)
	}
	if c.certified < c.blocks/10 || c.certified > c.blocks*9/10 {
		t.Errorf("random blocks: %d of %d certified; want both paths well covered", c.certified, c.blocks)
	}

	// Near the bound: a horizontal frequency-2 cosine (the coefficient with
	// the smallest AC step) plus ±1 noise concentrates the AC energy where
	// the Parseval bound is tightest. The quantizer is then chosen so the
	// bound lands within 1e-3 of that energy, on either side.
	near := &blockChecker{t: t}
	for i := 0; i < n/10; i++ {
		key := i%2 == 0
		amp := 0.5 + 40*rng.Float64() // larger amplitudes need qscale < 0.02
		dc := rng.Intn(100) - 50
		for j := range x {
			x[j] = dc + int(math.Round(amp*dctCos[2][j%8])) + rng.Intn(3) - 1
		}
		if !residualFor(rng, &x, &prev, key) {
			continue
		}
		sum, sumSq := 0, 0
		for _, v := range x {
			sum += v
			sumSq += v * v
		}
		energy := float64(64*sumSq-sum*sum) / 64
		qmin := 2 * (math.Sqrt(energy+(2*rng.Float64()-1)*1e-3) + acZeroMargin)
		qscale := float64(jpegLuma[2]) / qmin
		if qscale < 0.02 || qscale > 10 {
			continue
		}
		q := quantTable(qscale)
		if d := acZeroBound(&q)/64 - energy; math.Abs(d) > 1e-3 {
			t.Fatalf("near-bound block off by %g", d)
		}
		near.check(&x, &prev, key, qscale)
	}
	if near.certified < near.blocks/4 || near.certified > near.blocks*3/4 {
		t.Errorf("near-bound blocks: %d of %d certified; want both sides of the bound", near.certified, near.blocks)
	}

	// DC ties: a power-of-two DC step (qscale = 16/2^j) and a block sum of
	// 8·(k+½)·q[0], so DC/q[0] is k+½ up to the transform's rounding, with
	// a small zero-sum AC part.
	ties := &blockChecker{t: t}
	for i := 0; i < n/10; i++ {
		key := i%2 == 0
		q0 := 1 << (1 + rng.Intn(9)) // 2..512
		limit := 8128 / (8 * q0)     // keeps most block means valid keyframe residuals
		k := rng.Intn(2*limit+1) - limit
		total := 4 * (2*k + 1) * q0
		base, rem := total/64, total%64 // rem carries total's sign
		for j := range x {
			x[j] = base
			if j < rem {
				x[j]++
			} else if j < -rem {
				x[j]--
			}
		}
		for j := 0; j < 8; j++ { // zero-sum AC part
			a, b, d := rng.Intn(64), rng.Intn(64), rng.Intn(3)
			x[a] += d
			x[b] -= d
		}
		if !residualFor(rng, &x, &prev, key) {
			continue
		}
		ties.check(&x, &prev, key, 16/float64(q0))
	}
	if ties.certified < ties.blocks/2 {
		t.Errorf("DC-tie blocks: %d of %d certified; want most on the shortcut", ties.certified, ties.blocks)
	}
	t.Logf("random %d/%d, near-bound %d/%d, DC-tie %d/%d blocks certified",
		c.certified, c.blocks, near.certified, near.blocks, ties.certified, ties.blocks)
}

// TestIDCT8MatchesReference checks the zero-column skip on sparse
// dequantized blocks, including negative-zero coefficients: outputs may
// differ from the dense transform only in the sign of a zero.
func TestIDCT8MatchesReference(t *testing.T) {
	rng := simrand.New(18)
	negZero := math.Copysign(0, -1)
	for i := 0; i < 200_000; i++ {
		var got [64]float64
		for j := 0; j < rng.Intn(12); j++ {
			got[rng.Intn(64)] = float64(rng.Intn(401)-200) * (0.5 + 40*rng.Float64())
		}
		for j := 0; j < rng.Intn(4); j++ {
			got[rng.Intn(64)] = negZero
		}
		want := got
		idct8(&got)
		idct8Ref(&want)
		for j := range got {
			if got[j] != want[j] { // == treats ±0 as equal
				t.Fatalf("block %d: idct8[%d] = %v, want %v", i, j, got[j], want[j])
			}
		}
	}
}

// encodePinned is the sha256 of every Encode output (data, key flag,
// qscale) and every decoded frame, for 360p and 720p at 0.3, 1.5 and
// 4 Mbps over 70 frames each, as produced by the codec before the
// transform shortcuts.
const encodePinned = "5dbd339c450ea14b0211476d7e671752457f3a865673bf3bebadb0b82f08b4ab"

func TestEncodeOutputPinned(t *testing.T) {
	h := sha256.New()
	for _, size := range [][2]int{{640, 360}, {1280, 720}} {
		for _, bps := range []float64{0.3e6, 1.5e6, 4e6} {
			w, hh := size[0], size[1]
			scene := NewScene(simrand.New(int64(w)+int64(bps)), w, hh, 30)
			enc, _ := NewEncoder(DefaultConfig(w, hh, bps))
			dec := NewDecoder()
			for i := 0; i < 70; i++ {
				ef, err := enc.Encode(scene.Next())
				if err != nil {
					t.Fatal(err)
				}
				var meta [9]byte
				if ef.Key {
					meta[0] = 1
				}
				binary.LittleEndian.PutUint64(meta[1:], math.Float64bits(ef.QScale))
				h.Write(meta[:])
				h.Write(ef.Data)
				f, err := dec.Decode(ef.Data)
				if err != nil {
					t.Fatal(err)
				}
				h.Write(f.Pix)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != encodePinned {
		t.Errorf("encoder output hash %s, want %s", got, encodePinned)
	}
}

var idctSink [64]float64

func BenchmarkIDCT8(b *testing.B) {
	rng := simrand.New(19)
	var dense, dc [64]float64
	for i := range dense {
		dense[i] = float64(rng.Intn(41) - 20)
	}
	dc[0] = 37
	for _, bc := range []struct {
		name  string
		block *[64]float64
	}{{"dense", &dense}, {"dc", &dc}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				idctSink = *bc.block
				idct8(&idctSink)
			}
		})
	}
}
