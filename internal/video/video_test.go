package video

import (
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"telepresence/internal/entropy"
	"telepresence/internal/simrand"
)

func TestDCTRoundTrip(t *testing.T) {
	rng := simrand.New(1)
	var block, orig [64]float64
	for i := range block {
		block[i] = rng.Uniform(-128, 128)
		orig[i] = block[i]
	}
	fdct8(&block)
	idct8(&block)
	for i := range block {
		if math.Abs(block[i]-orig[i]) > 1e-9 {
			t.Fatalf("DCT round trip error %v at %d", block[i]-orig[i], i)
		}
	}
}

func TestDCTEnergyCompaction(t *testing.T) {
	// A smooth gradient block should concentrate energy in low
	// frequencies.
	var block [64]float64
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			block[y*8+x] = float64(x + y)
		}
	}
	fdct8(&block)
	var low, total float64
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			e := block[y*8+x] * block[y*8+x]
			total += e
			if x < 2 && y < 2 {
				low += e
			}
		}
	}
	if low/total < 0.95 {
		t.Errorf("low-frequency energy fraction %.3f, want > 0.95", low/total)
	}
}

func TestFrameAtClamps(t *testing.T) {
	f := NewFrame(4, 4)
	f.Set(3, 3, 77)
	if f.At(10, 10) != 77 {
		t.Errorf("At should clamp to edge, got %d", f.At(10, 10))
	}
	if f.At(-5, -5) != f.At(0, 0) {
		t.Error("negative clamp broken")
	}
	f.Set(100, 100, 1) // must not panic or write
}

func TestEncodeDecodeKeyFrame(t *testing.T) {
	rng := simrand.New(2)
	scene := NewScene(rng, 160, 120, 30)
	enc, err := NewEncoder(Config{W: 160, H: 120, FPS: 30, Quality: 2, GOP: 30, SkipThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder()
	f := scene.Next()
	ef, err := enc.Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	if !ef.Key {
		t.Error("first frame not a keyframe")
	}
	got, err := dec.Decode(ef.Data)
	if err != nil {
		t.Fatal(err)
	}
	if p := PSNR(f, got); p < 30 {
		t.Errorf("keyframe PSNR = %.1f dB, want > 30", p)
	}
}

func TestEncodeDecodeSequenceNoDrift(t *testing.T) {
	rng := simrand.New(3)
	scene := NewScene(rng, 160, 120, 30)
	enc, _ := NewEncoder(Config{W: 160, H: 120, FPS: 30, Quality: 1.5, GOP: 30, SkipThreshold: 2})
	dec := NewDecoder()
	for i := 0; i < 90; i++ {
		f := scene.Next()
		ef, err := enc.Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dec.Decode(ef.Data)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if p := PSNR(f, got); p < 26 {
			t.Fatalf("frame %d PSNR = %.1f dB (drift?)", i, p)
		}
	}
}

func TestGOPStructure(t *testing.T) {
	rng := simrand.New(4)
	scene := NewScene(rng, 96, 96, 30)
	enc, _ := NewEncoder(Config{W: 96, H: 96, FPS: 30, Quality: 1, GOP: 10, SkipThreshold: 2})
	for i := 0; i < 30; i++ {
		ef, err := enc.Encode(scene.Next())
		if err != nil {
			t.Fatal(err)
		}
		if want := i%10 == 0; ef.Key != want {
			t.Errorf("frame %d key=%v, want %v", i, ef.Key, want)
		}
	}
}

func TestPFramesSmallerThanIFrames(t *testing.T) {
	rng := simrand.New(5)
	scene := NewScene(rng, 160, 120, 30)
	scene.NoiseLevel = 0 // isolate inter prediction from camera noise
	enc, _ := NewEncoder(Config{W: 160, H: 120, FPS: 30, Quality: 1, GOP: 100, SkipThreshold: 2})
	// Static content: after the keyframe, every block should skip and P
	// frames collapse to almost nothing.
	f := scene.Next()
	iFrame, _ := enc.Encode(f)
	p1, _ := enc.Encode(f)
	if p1.Key {
		t.Fatal("expected P frame")
	}
	if len(p1.Data) >= len(iFrame.Data)/5 {
		t.Errorf("static P frame %d B vs I %d B: skip mode ineffective", len(p1.Data), len(iFrame.Data))
	}
	// Moving content: P frames still beat I frames.
	pTotal, pCount := 0, 0
	for i := 0; i < 20; i++ {
		ef, _ := enc.Encode(scene.Next())
		if !ef.Key {
			pTotal += len(ef.Data)
			pCount++
		}
	}
	if pMean := float64(pTotal) / float64(pCount); pMean >= float64(len(iFrame.Data)) {
		t.Errorf("moving P mean %.0f B not below I %d B", pMean, len(iFrame.Data))
	}
}

func TestRateControlConverges(t *testing.T) {
	rng := simrand.New(6)
	const target = 500_000.0 // 500 kbps
	scene := NewScene(rng, 320, 180, 30)
	cfg := DefaultConfig(320, 180, target)
	enc, _ := NewEncoder(cfg)
	var bytes int
	const n = 150
	for i := 0; i < n; i++ {
		ef, err := enc.Encode(scene.Next())
		if err != nil {
			t.Fatal(err)
		}
		if i >= 30 { // after convergence window
			bytes += len(ef.Data)
		}
	}
	got := float64(bytes) * 8 / float64(n-30) * 30
	if got < target*0.6 || got > target*1.6 {
		t.Errorf("rate control: %.0f bps, want ~%.0f", got, target)
	}
}

func TestDecoderErrors(t *testing.T) {
	dec := NewDecoder()
	if _, err := dec.Decode(nil); err == nil {
		t.Error("nil frame accepted")
	}
	// Delta frame without reference.
	rng := simrand.New(7)
	scene := NewScene(rng, 64, 64, 30)
	enc, _ := NewEncoder(Config{W: 64, H: 64, FPS: 30, Quality: 1, GOP: 5, SkipThreshold: 2})
	enc.Encode(scene.Next()) // I
	p, _ := enc.Encode(scene.Next())
	if p.Key {
		t.Fatal("expected P frame")
	}
	if _, err := NewDecoder().Decode(p.Data); err == nil {
		t.Error("cold-start P frame accepted")
	}
}

func TestDecodeCorruptNoPanic(t *testing.T) {
	rng := simrand.New(8)
	scene := NewScene(rng, 64, 64, 30)
	enc, _ := NewEncoder(Config{W: 64, H: 64, FPS: 30, Quality: 1, GOP: 5, SkipThreshold: 2})
	ef, _ := enc.Encode(scene.Next())
	mut := append([]byte(nil), ef.Data...)
	for trial := 0; trial < 200; trial++ {
		i := rng.Intn(len(mut))
		old := mut[i]
		mut[i] ^= byte(1 + rng.Intn(255))
		dec := NewDecoder()
		_, _ = dec.Decode(mut) // must not panic
		mut[i] = old
	}
}

func TestEncodeWrongSize(t *testing.T) {
	enc, _ := NewEncoder(Config{W: 64, H: 64, FPS: 30, Quality: 1})
	if _, err := enc.Encode(NewFrame(32, 32)); err == nil {
		t.Error("mismatched frame size accepted")
	}
}

func TestNewEncoderValidation(t *testing.T) {
	if _, err := NewEncoder(Config{W: 0, H: 10}); err == nil {
		t.Error("zero width accepted")
	}
}

func TestHigherQualityMoreBitsBetterPSNR(t *testing.T) {
	run := func(q float64) (int, float64) {
		scene := NewScene(simrand.New(9), 160, 120, 30)
		enc, _ := NewEncoder(Config{W: 160, H: 120, FPS: 30, Quality: q, GOP: 100, SkipThreshold: 0})
		dec := NewDecoder()
		f := scene.Next()
		ef, _ := enc.Encode(f)
		got, err := dec.Decode(ef.Data)
		if err != nil {
			t.Fatal(err)
		}
		return len(ef.Data), PSNR(f, got)
	}
	loBytes, loPSNR := run(0.3)
	hiBytes, hiPSNR := run(3)
	if hiBytes <= loBytes {
		t.Errorf("higher quality fewer bits: %d vs %d", hiBytes, loBytes)
	}
	if hiPSNR <= loPSNR {
		t.Errorf("higher quality worse PSNR: %.1f vs %.1f", hiPSNR, loPSNR)
	}
}

func TestSceneDeterminism(t *testing.T) {
	a := NewScene(simrand.New(10), 80, 60, 30)
	b := NewScene(simrand.New(10), 80, 60, 30)
	for i := 0; i < 10; i++ {
		fa, fb := a.Next(), b.Next()
		for j := range fa.Pix {
			if fa.Pix[j] != fb.Pix[j] {
				t.Fatalf("scene diverged at frame %d pixel %d", i, j)
			}
		}
	}
}

func TestSceneHasMotion(t *testing.T) {
	s := NewScene(simrand.New(11), 80, 60, 30)
	a := s.Next().Clone() // Next reuses its buffer; Clone to hold a frame
	var diff int
	for i := 0; i < 30; i++ {
		b := s.Next().Clone()
		for j := range a.Pix {
			d := int(a.Pix[j]) - int(b.Pix[j])
			if d < 0 {
				d = -d
			}
			diff += d
		}
		a = b
	}
	if diff == 0 {
		t.Error("scene is static")
	}
}

func TestPSNRIdentical(t *testing.T) {
	f := NewFrame(8, 8)
	if !math.IsInf(PSNR(f, f.Clone()), 1) {
		t.Error("identical frames should have infinite PSNR")
	}
	if PSNR(f, NewFrame(4, 4)) != 0 {
		t.Error("mismatched sizes should return 0")
	}
}

func BenchmarkEncode360p(b *testing.B) {
	scene := NewScene(simrand.New(12), 640, 360, 30)
	enc, _ := NewEncoder(DefaultConfig(640, 360, 1.5e6))
	frames := make([]*Frame, 16)
	for i := range frames {
		frames[i] = scene.Next().Clone()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.Encode(frames[i%16]); err != nil {
			b.Fatal(err)
		}
	}
}

// benchmarkEncodeConverged times Encode with a session's encoder settings
// (GOP of two seconds) at a rate-controlled target, after 150 warm-up
// frames have let the quantizer settle. The scene frames are replayed
// forward then backward, so consecutive frames always differ by one step
// of motion, as in a live call.
func benchmarkEncodeConverged(b *testing.B, w, h int, fps, bps float64) {
	scene := NewScene(simrand.New(21), w, h, fps)
	enc, _ := NewEncoder(Config{W: w, H: h, FPS: fps, TargetBps: bps, Quality: 1,
		GOP: int(2 * fps), SkipThreshold: 2})
	frames := make([]*Frame, 32)
	for i := range frames {
		frames[i] = scene.Next().Clone()
	}
	frame := func(i int) *Frame { // 0..31, 30..1, 0..31, ...
		i %= 2*len(frames) - 2
		if i >= len(frames) {
			i = 2*len(frames) - 2 - i
		}
		return frames[i]
	}
	for i := 0; i < 150; i++ {
		enc.Encode(frame(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.Encode(frame(150 + i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncode360pLowRate is lossy2d's regime: Zoom's 640x360 at
// 15 fps, retargeted to 0.3 Mbps. The quantizer settles near qscale 0.26,
// where about 83% of coded blocks quantize to a DC term or nothing. (At
// 0.5 Mbps it settles near 0.9, and no block does.)
func BenchmarkEncode360pLowRate(b *testing.B) { benchmarkEncodeConverged(b, 640, 360, 15, 0.3e6) }

// BenchmarkEncode720p is sfu2d's regime: Teams' 1280x720 at 30 fps and
// 2.6 Mbps.
func BenchmarkEncode720p(b *testing.B) { benchmarkEncodeConverged(b, 1280, 720, 30, 2.6e6) }

func BenchmarkDecode360p(b *testing.B) {
	scene := NewScene(simrand.New(13), 640, 360, 30)
	enc, _ := NewEncoder(DefaultConfig(640, 360, 1.5e6))
	ef, _ := enc.Encode(scene.Next())
	dec := NewDecoder()
	b.SetBytes(int64(len(ef.Data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Decode(ef.Data); err != nil {
			b.Fatal(err)
		}
	}
}

// TestValidateMatchesDecode pins Validate to Decode over a live stream:
// same accept/reject verdicts for intact, cold-start and corrupt input,
// since the session receive path counts decodability through Validate.
func TestValidateMatchesDecode(t *testing.T) {
	rng := simrand.New(14)
	scene := NewScene(rng, 96, 96, 30)
	enc, _ := NewEncoder(Config{W: 96, H: 96, FPS: 30, Quality: 1, GOP: 10, SkipThreshold: 2})
	val := NewDecoder()
	ref := NewDecoder()
	for i := 0; i < 30; i++ {
		ef, err := enc.Encode(scene.Next())
		if err != nil {
			t.Fatal(err)
		}
		vErr := val.Validate(ef.Data)
		_, dErr := ref.Decode(ef.Data)
		if (vErr == nil) != (dErr == nil) {
			t.Fatalf("frame %d: Validate err=%v, Decode err=%v", i, vErr, dErr)
		}
	}
	// Cold start on a P frame must be rejected by both.
	enc.Encode(scene.Next()) // ensure next frame is a delta
	p, _ := enc.Encode(scene.Next())
	if p.Key {
		t.Fatal("expected P frame")
	}
	if NewDecoder().Validate(p.Data) == nil {
		t.Error("Validate accepted cold-start P frame")
	}
	if _, err := NewDecoder().Decode(p.Data); err == nil {
		t.Error("Decode accepted cold-start P frame")
	}
	// Truncated data must be rejected by both.
	if val.Validate(p.Data[:5]) == nil {
		t.Error("Validate accepted truncated frame")
	}
	if _, err := ref.Decode(p.Data[:5]); err == nil {
		t.Error("Decode accepted truncated frame")
	}
}

// TestOversizedHeaderRejectedBeforeAlloc feeds an 18-byte keyframe whose
// header claims 40000x40000 pixels over a one-block body: both Decode and
// Validate must reject it without allocating a frame of that size.
func TestOversizedHeaderRejectedBeforeAlloc(t *testing.T) {
	data := []byte{frameKey}
	data = binary.LittleEndian.AppendUint16(data, 40000)
	data = binary.LittleEndian.AppendUint16(data, 40000)
	data = binary.LittleEndian.AppendUint32(data, math.Float32bits(1))
	data = entropy.Compress(data, binary.AppendUvarint(nil, 64|endOfBlock))
	if len(data) != 18 {
		t.Fatalf("frame is %d bytes, want 18", len(data))
	}
	for _, c := range []struct {
		name string
		run  func(*Decoder) error
	}{
		{"Decode", func(d *Decoder) error { _, err := d.Decode(data); return err }},
		{"Validate", func(d *Decoder) error { return d.Validate(data) }},
	} {
		d := NewDecoder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.run(d)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s accepted a 40000x40000 frame with a one-block body", c.name)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Errorf("%s allocated %d bytes, want < 1 MiB", c.name, n)
		}
	}
}

// FuzzValidateMatchesDecode checks that Validate and Decode accept and
// reject exactly the same frames, and that neither panics. Each input runs
// against a Validate/Decode decoder pair primed with the same keyframe,
// one per seed resolution; the corpus starts from real 360p and 720p key
// and delta frames at a high and a low rate.
func FuzzValidateMatchesDecode(f *testing.F) {
	type pair struct{ val, dec Decoder }
	var primed []*pair
	for _, size := range [][2]int{{640, 360}, {1280, 720}} {
		for _, quality := range []float64{4, 0.05} {
			w, h := size[0], size[1]
			scene := NewScene(simrand.New(int64(w)), w, h, 30)
			enc, _ := NewEncoder(Config{W: w, H: h, FPS: 30, Quality: quality, GOP: 60, SkipThreshold: 2})
			for i := 0; i < 3; i++ {
				ef, err := enc.Encode(scene.Next())
				if err != nil {
					f.Fatal(err)
				}
				f.Add(append([]byte(nil), ef.Data...))
				if i == 0 && quality == 4 {
					p := &pair{val: *NewDecoder(), dec: *NewDecoder()}
					if err := p.val.Validate(ef.Data); err != nil {
						f.Fatal(err)
					}
					if _, err := p.dec.Decode(ef.Data); err != nil {
						f.Fatal(err)
					}
					primed = append(primed, p)
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := primed[0]
		if len(data) >= 5 {
			w := int(binary.LittleEndian.Uint16(data[1:]))
			h := int(binary.LittleEndian.Uint16(data[3:]))
			for _, q := range primed {
				if q.dec.ref.W == w && q.dec.ref.H == h {
					p = q
				}
			}
		}
		// Copies of the primed decoders: Decode never writes into its
		// reference frame, so the copies share it safely.
		val, dec := p.val, p.dec
		vErr := val.Validate(data)
		_, dErr := dec.Decode(data)
		if (vErr == nil) != (dErr == nil) {
			t.Errorf("Validate err = %v, Decode err = %v", vErr, dErr)
		}
	})
}

// TestSetTargetBpsRetargetsMidStream pins the congestion-control hook: after
// SetTargetBps lowers the target mid-stream, the rate controller steers
// steady-state frame sizes down toward the new budget.
func TestSetTargetBpsRetargetsMidStream(t *testing.T) {
	enc, err := NewEncoder(Config{W: 320, H: 240, FPS: 30, TargetBps: 1.2e6, Quality: 1,
		GOP: 300, SkipThreshold: 0})
	if err != nil {
		t.Fatal(err)
	}
	scene := NewScene(simrand.New(1), 320, 240, 30)
	meanSize := func(frames int) float64 {
		var total int
		for i := 0; i < frames; i++ {
			ef, err := enc.Encode(scene.Next())
			if err != nil {
				t.Fatal(err)
			}
			total += len(ef.Data)
		}
		return float64(total) / float64(frames)
	}
	meanSize(60) // converge at 1.2 Mbps
	before := meanSize(30)
	enc.SetTargetBps(0.3e6)
	if got := enc.TargetBps(); got != 0.3e6 {
		t.Fatalf("TargetBps = %v after SetTargetBps", got)
	}
	meanSize(60) // converge at the new target
	after := meanSize(30)
	if after >= before*0.55 {
		t.Errorf("mean frame size %.0f -> %.0f B; want a ~4x target cut to shrink frames by >45%%",
			before, after)
	}
}

// clamp255Ref is the historical clamp: clamp to [0, 255], then round half
// away from zero.
func clamp255Ref(v float64) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(math.Round(v))
}

// TestClamp255Exact pins the branch-light clamp255 to the reference on the
// rounding boundaries, the special values, and the noisy pixel values the
// scene and codec reconstruction loops actually feed it.
func TestClamp255Exact(t *testing.T) {
	check := func(v float64) {
		if got, want := clamp255(v), clamp255Ref(v); got != want {
			t.Fatalf("clamp255(%v) = %d, want %d", v, got, want)
		}
	}
	for k := -2; k <= 256; k++ {
		h := float64(k) + 0.5
		check(h)
		check(math.Nextafter(h, math.Inf(-1)))
		check(math.Nextafter(h, math.Inf(1)))
	}
	for _, v := range []float64{
		0.49999999999999994, 0, math.Copysign(0, -1), 255, 255.5,
		math.Inf(1), math.Inf(-1),
	} {
		check(v)
	}
	const n = 10_000_000
	for _, sigma := range []float64{1.2, 9} {
		rng := simrand.New(int64(sigma * 10))
		for i := 0; i < n; i++ {
			check(float64(i&0xFF) + rng.Normal(0, sigma))
		}
	}
}

var sceneSink *Frame

func benchmarkSceneNext(b *testing.B, w, h int) {
	s := NewScene(simrand.New(15), w, h, 30)
	b.SetBytes(int64(w * h))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sceneSink = s.Next()
	}
}

func BenchmarkSceneNext360p(b *testing.B)  { benchmarkSceneNext(b, 640, 360) }
func BenchmarkSceneNext720p(b *testing.B)  { benchmarkSceneNext(b, 1280, 720) }
func BenchmarkSceneNext1080p(b *testing.B) { benchmarkSceneNext(b, 1920, 1080) }
