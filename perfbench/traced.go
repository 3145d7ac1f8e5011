package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"telepresence/internal/entropy"
	"telepresence/internal/keypoints"
	"telepresence/internal/netem"
	"telepresence/internal/quic"
	"telepresence/internal/ratecontrol"
	"telepresence/internal/recovery"
	"telepresence/internal/rtp"
	"telepresence/internal/semantic"
	"telepresence/internal/simrand"
	"telepresence/internal/simtime"
	"telepresence/internal/vca"
	"telepresence/internal/video"
)

// span accumulates the calls of one layer operation.
type span struct {
	samples []float64 // ns per call; per call amortized over a group for grouped spans
	wallNs  float64   // total wall time of the timed calls
	calls   float64   // timed calls
	// allocs is the heap allocations of allocCalls calls, counted apart
	// from the timed calls.
	allocs, allocCalls float64
}

// tracer keeps every span in memory; the traced pass writes the table once
// the replay ends.
type tracer struct {
	spans map[string]*span
	ms    runtime.MemStats
	// countAllocs selects what the spans record: heap allocations, in a
	// replay that is not timed, or wall time alone. Counting allocations
	// reads MemStats, which stops the world and cools the caches, so it
	// never brackets a timed call.
	countAllocs bool
	// nestedNs and nestedAllocs total everything spent inside span calls,
	// instrumentation included, so a grouped span that encloses them can
	// subtract them.
	nestedNs     float64
	nestedAllocs uint64
	// cals are calibrations taken between events, so traced.coverage can
	// compare span times with run_s at the same reference speed; lastCal
	// is when the latest was taken.
	cals    []float64
	lastCal time.Time
}

func newTracer() *tracer { return &tracer{spans: map[string]*span{}} }

func (t *tracer) get(name string) *span {
	s := t.spans[name]
	if s == nil {
		s = &span{}
		t.spans[name] = s
	}
	return s
}

func (t *tracer) mallocs() uint64 {
	runtime.ReadMemStats(&t.ms)
	return t.ms.Mallocs
}

// call times one call of fn as a sample of name and counts its heap
// allocations.
func (t *tracer) call(name string, fn func()) {
	t.callAs(func() string { fn(); return name })
}

// callAs is call for a span whose name depends on the outcome: fn returns
// it.
func (t *tracer) callAs(fn func() string) {
	if t.countAllocs {
		m0 := t.mallocs()
		name := fn()
		n := t.mallocs() - m0
		t.groupAllocs(name, n, 1)
		t.nestedAllocs += n
		return
	}
	t0 := time.Now()
	name := fn()
	t.groupTime(name, float64(time.Since(t0)), 1)
	t.nestedNs += float64(time.Since(t0))
}

// groupTime records calls operations timed together as one amortized
// sample.
func (t *tracer) groupTime(name string, wallNs float64, calls int) {
	if calls <= 0 {
		return
	}
	s := t.get(name)
	s.samples = append(s.samples, wallNs/float64(calls))
	s.wallNs += wallNs
	s.calls += float64(calls)
}

// groupAllocs records the heap allocations of calls operations counted
// together.
func (t *tracer) groupAllocs(name string, allocs uint64, calls int) {
	if calls <= 0 {
		return
	}
	s := t.get(name)
	s.allocs += float64(allocs)
	s.allocCalls += float64(calls)
}

// ingress is one frame a replay link accepted for sending, recorded so the
// netem pass can send the same traffic through identical links.
type ingress struct {
	at   simtime.Time
	link int32
	size int32
}

// replayLinks builds a replay's access links as NewSession builds them, and
// records their ingress.
type replayLinks struct {
	w    *workload
	sc   vca.SessionConfig
	plan vca.Plan
	rec  []ingress
}

func newReplayLinks(w *workload, seed int64) (*replayLinks, error) {
	sc := w.sessionConfig(seed, w.dur)
	plan, err := vca.PlanSession(sc.App, sc.Participants, sc.Initiator)
	if err != nil {
		return nil, err
	}
	return &replayLinks{w: w, sc: sc, plan: plan}, nil
}

// build builds the links on sched from the session's own random stream: one
// pipe per participant to the server, or one pipe between the two users of
// a P2P call. It returns each participant's uplink and downlink, every
// distinct link with the uplinks first, and the stream, which the caller
// goes on splitting in the session's order.
func (rl *replayLinks) build(sched *simtime.Scheduler) (up, down, links []*netem.Link, rng *simrand.Source) {
	sc, n := rl.sc, len(rl.sc.Participants)
	rng = simrand.New(sc.Seed)
	up, down = make([]*netem.Link, n), make([]*netem.Link, n)
	if rl.plan.P2P {
		a, b := sc.Participants[0].Loc, sc.Participants[1].Loc
		p := netem.NewPipe(sched, rng.Split("p2p"), netem.Config{Name: "p2p", DelayMs: sc.PathModel.BaseRTTMs(a, b) / 2, JitterMs: 0.3})
		up[0], down[0], up[1], down[1] = p.AB, p.BA, p.BA, p.AB
		return up, down, []*netem.Link{p.AB, p.BA}, rng
	}
	procMs := vca.SpecFor(sc.App).ServerProcMs / 2
	for i, part := range sc.Participants {
		p := netem.NewPipe(sched, rng.Split(fmt.Sprintf("pipe%d", i)), netem.Config{
			Name: "ap-" + part.ID, DelayMs: sc.PathModel.BaseRTTMs(part.Loc, rl.plan.Server)/2 + procMs, JitterMs: 0.3,
		})
		up[i], down[i] = p.AB, p.BA
	}
	return up, down, append(append(links, up...), down...), rng
}

// record taps the ingress of links, as build returned them.
func (rl *replayLinks) record(links []*netem.Link) {
	for k, l := range links {
		k := int32(k)
		l.AddTap(func(now simtime.Time, f netem.Frame, dir netem.Direction) {
			if dir == netem.Ingress {
				rl.rec = append(rl.rec, ingress{at: now, link: k, size: int32(f.Size)})
			}
		})
	}
}

// uplinkIngress is how many frames and bytes entered the participants'
// uplinks.
func (rl *replayLinks) uplinkIngress() (frames, bytes int) {
	for _, in := range rl.rec {
		if int(in.link) < len(rl.sc.Participants) {
			frames++
			bytes += int(in.size)
		}
	}
	return frames, bytes
}

// bindImpairments binds the workload's schedules to the uplinks' shapers,
// as the benchmark's set-up does once NewSession returns.
func (rl *replayLinks) bindImpairments(sched *simtime.Scheduler, up []*netem.Link) error {
	for i, sch := range rl.w.impair(rl.w.dur) {
		if sch == nil {
			continue
		}
		if err := sch.Bind(sched, up[i].Shaper()); err != nil {
			return err
		}
	}
	return nil
}

// replay is one traced session replay.
type replay struct {
	tr       *tracer
	w        *workload
	sched    *simtime.Scheduler
	links    *replayLinks
	frames   int // frames sent by all senders
	deadline time.Time
	err      error
	// entropy replay state and byte totals for entropy.ratio
	cmp      *entropy.Compressor
	dcmp     *entropy.Decompressor
	raw, enc []byte
	rawB     float64
	encB     float64
}

// entropyReplay times the coder on the raw payload a producer handed it:
// payload is the producer's compressed body, which decompresses to that raw
// payload.
func (r *replay) entropyReplay(payload []byte) {
	var err error
	r.tr.call("entropy.decompress", func() { r.raw, err = r.dcmp.Decompress(r.raw[:0], payload) })
	if err != nil {
		r.fail(fmt.Errorf("entropy: %w", err))
		return
	}
	r.tr.call("entropy.compress", func() { r.enc = r.cmp.Compress(r.enc[:0], r.raw) })
	r.rawB += float64(len(r.raw))
	r.encB += float64(len(r.enc))
}

func (r *replay) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// schedProbe marks where each event's callback starts and ends, so the
// scheduler's own share of a Step is the Step less its callback.
type schedProbe struct {
	tr         *tracer
	start, end time.Time
	// count makes the probe read the allocation counter instead of the
	// clock, for the next event.
	count  bool
	m0, m1 uint64
}

func (p *schedProbe) EventStart(simtime.SiteID, simtime.Time) {
	if p.count {
		p.m0 = p.tr.mallocs()
	}
	p.start = time.Now()
}

func (p *schedProbe) EventEnd(simtime.SiteID) {
	p.end = time.Now()
	if p.count {
		p.m1 = p.tr.mallocs()
	}
}

const (
	// calEvery is how often a replay calibrates the host's speed.
	calEvery = 50 * time.Millisecond
	// eventGroup is how many events one simtime.event sample amortizes.
	eventGroup = 64
	// allocEventEvery is how often the allocation replay counts one
	// event's scheduler allocations: every event would stop the world four
	// times.
	allocEventEvery = 16
)

// runSteps drives the replay's scheduler to the end of the session or the
// deadline, and reports whether it reached the end. each, when non-nil,
// runs after every event with the Step's wall time. The simtime.event span
// is the scheduler's own share of each Step on the replay's real event mix
// and queue: popping the event, reaping cancelled ones, advancing the clock
// and recycling the node. Scheduling a new event happens inside a callback
// and counts in the layer that schedules it.
func (r *replay) runSteps(each func(stepNs float64)) bool {
	// Session.Run runs every event up to and including the session's end;
	// the marker fires right after the last of them.
	ended := false
	r.sched.At(simtime.Time(r.w.dur)+1, func() { ended = true })
	p := &schedProbe{tr: r.tr}
	r.sched.SetProbe(p)
	defer r.sched.SetProbe(nil)
	var groupNs float64
	grouped := 0
	for i := 0; r.err == nil; i++ {
		if i%64 == 0 {
			now := time.Now()
			if now.After(r.deadline) {
				return false
			}
			if now.Sub(r.tr.lastCal) >= calEvery {
				resume := pauseGC()
				r.tr.cals = append(r.tr.cals, calibrate())
				resume()
				r.tr.lastCal = time.Now()
			}
		}
		if r.tr.countAllocs {
			p.count = i%allocEventEvery == 0
			var m0 uint64
			if p.count {
				m0 = r.tr.mallocs()
			}
			if !r.sched.Step() || ended {
				return true
			}
			if p.count {
				r.tr.groupAllocs("simtime.event", r.tr.mallocs()-m0-(p.m1-p.m0), 1)
			}
			if each != nil {
				each(0)
			}
			continue
		}
		t0 := time.Now()
		ok := r.sched.Step()
		stepNs := float64(time.Since(t0))
		if !ok || ended {
			return true
		}
		groupNs += stepNs - float64(p.end.Sub(p.start))
		if grouped++; grouped == eventGroup {
			r.tr.groupTime("simtime.event", groupNs, eventGroup)
			groupNs, grouped = 0, 0
		}
		if each != nil {
			each(stepNs)
		}
	}
	return false
}

// ---------------------------------------------------------------- video

// videoReplay mirrors a 2D-video session as wireVideo builds it: per sender
// a scene, encoder, packetizer, recovery sender and rate controller; per
// stream a depacketizer, decoder, recovery receiver and report builder; the
// SFU relay or the P2P pipe between them. Wiring, ticker order and random
// streams follow the session, so a replay sends exactly what the session
// with its seed sends, which the traced pass checks.
type videoReplay struct {
	*replay
	n        int
	up, down []*netem.Link
	scenes   []*video.Scene
	encs     []*video.Encoder
	packers  []*rtp.Packetizer
	rsend    []*recovery.Sender
	ctrls    []ratecontrol.Controller
	depacks  [][]*rtp.Depacketizer
	decs     [][]*video.Decoder
	rrecv    [][]*recovery.Receiver
	builders [][]*rtp.ReportBuilder
	gcTicks  uint32
	nack     rtp.Nack
	due      []uint16
	stamped  []byte
}

func newVideoReplay(r *replay) (*videoReplay, error) {
	sc := r.links.sc
	spec := vca.SpecFor(sc.App)
	n := len(sc.Participants)
	v := &videoReplay{replay: r, n: n}
	var links []*netem.Link
	var rng *simrand.Source
	v.up, v.down, links, rng = r.links.build(r.sched)
	r.links.record(links)
	for i := 0; i < n; i++ {
		enc, err := video.NewEncoder(video.Config{W: spec.VideoW, H: spec.VideoH, FPS: sc.VideoFPS,
			TargetBps: spec.VideoTargetBps, Quality: 1, GOP: int(sc.VideoFPS) * 2, SkipThreshold: 2})
		if err != nil {
			return nil, err
		}
		v.encs = append(v.encs, enc)
		v.scenes = append(v.scenes, video.NewScene(rng.Split(fmt.Sprintf("scene%d", i)), spec.VideoW, spec.VideoH, sc.VideoFPS))
		v.packers = append(v.packers, rtp.NewPacketizer(rtp.PTGenericVideo, rtp.VideoSSRC(i)))
	}
	v.depacks = make([][]*rtp.Depacketizer, n)
	v.decs = make([][]*video.Decoder, n)
	for i := 0; i < n; i++ {
		v.depacks[i] = make([]*rtp.Depacketizer, n)
		v.decs[i] = make([]*video.Decoder, n)
		for j := 0; j < n; j++ {
			if j != i {
				v.depacks[i][j] = rtp.NewDepacketizer()
				v.decs[i][j] = video.NewDecoder()
			}
		}
	}
	if rc := sc.RateControl; rc != nil {
		for i := 0; i < n; i++ {
			c, err := ratecontrol.New(rc.Controller, ratecontrol.Config{InitialBps: spec.VideoTargetBps, MaxBps: spec.VideoTargetBps})
			if err != nil {
				return nil, err
			}
			v.ctrls = append(v.ctrls, c)
		}
	}
	if sc.Recovery != nil {
		v.rrecv = make([][]*recovery.Receiver, n)
		for i := 0; i < n; i++ {
			s, err := recovery.NewSender(sc.Recovery.Strategy, recovery.Config{})
			if err != nil {
				return nil, err
			}
			v.rsend = append(v.rsend, s)
			v.rrecv[i] = make([]*recovery.Receiver, n)
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				if v.rrecv[i][j], err = recovery.NewReceiver(sc.Recovery.Strategy, recovery.Config{}); err != nil {
					return nil, err
				}
			}
		}
	}
	if sc.RateControl != nil || sc.Recovery != nil {
		v.builders = make([][]*rtp.ReportBuilder, n)
		for i := 0; i < n; i++ {
			v.builders[i] = make([]*rtp.ReportBuilder, n)
			for j := 0; j < n; j++ {
				if j != i {
					v.builders[i][j] = rtp.NewReportBuilder(rtp.VideoSSRC(i))
				}
			}
		}
	}
	timeout := float64(vca.DefaultFrameTimeout) / float64(simtime.Millisecond)
	if sc.Recovery != nil {
		// The session stretches the jitter-buffer horizon over the NACK
		// deadline plus two 25 ms scans.
		if m := (recovery.Config{}).WithDefaults().NackDeadlineMs + 50; timeout < m {
			timeout = m
		}
	}
	v.gcTicks = uint32(timeout * 90)

	if r.links.plan.P2P {
		for k := 0; k < 2; k++ {
			k := k
			v.up[k].SetHandler(func(now simtime.Time, f netem.Frame) { v.arrive(1-k, f, now) })
		}
	} else {
		// The SFU forwards each uplink packet to every other downlink after
		// its processing delay.
		proc := simtime.Duration(spec.ServerProcMs * float64(simtime.Millisecond))
		for i := 0; i < n; i++ {
			i := i
			v.up[i].SetHandler(func(_ simtime.Time, f netem.Frame) {
				r.sched.After(proc, func() {
					for k := 0; k < n; k++ {
						if k != i {
							v.down[k].Send(f)
						}
					}
				})
			})
			v.down[i].SetHandler(func(now simtime.Time, f netem.Frame) { v.arrive(i, f, now) })
		}
	}

	if v.builders != nil {
		for j := 0; j < n; j++ {
			j := j
			simtime.NewTicker(r.sched, 100*simtime.Millisecond, func(now simtime.Time) { v.sendReports(j, now) })
		}
	}
	if v.rrecv != nil {
		for j := 0; j < n; j++ {
			j := j
			simtime.NewTicker(r.sched, 25*simtime.Millisecond, func(now simtime.Time) { v.sendNacks(j, now) })
		}
	}
	interval := simtime.Duration(float64(simtime.Second) / sc.VideoFPS)
	for i := 0; i < n; i++ {
		i := i
		simtime.NewTicker(r.sched, interval, func(now simtime.Time) { v.sendFrame(i, now) })
		audio := rtp.NewPacketizer(rtp.PTGenericAudio, rtp.AudioSSRC(i))
		buf := make([]byte, 60)
		simtime.NewTicker(r.sched, 20*simtime.Millisecond, func(now simtime.Time) {
			for _, pkt := range audio.Packetize(buf, now.Seconds()) {
				v.up[i].Send(netem.Frame{Size: len(pkt) + 28, Payload: pkt})
			}
		})
	}
	if err := r.links.bindImpairments(r.sched, v.up); err != nil {
		return nil, err
	}
	return v, nil
}

func (v *videoReplay) sendFrame(i int, now simtime.Time) {
	var frame *video.Frame
	v.tr.call("video.scene", func() { frame = v.scenes[i].Next() })
	var ef *video.EncodedFrame
	var err error
	v.tr.callAs(func() string {
		ef, err = v.encs[i].Encode(frame)
		if err == nil && ef.Key {
			return "video.encode_key"
		}
		return "video.encode"
	})
	if err != nil {
		return // the session skips the frame too
	}
	v.frames++
	v.entropyReplay(ef.Data[9:])

	v.stamped = append(v.stamped[:0], make([]byte, 8)...)
	putTime(v.stamped, now)
	v.stamped = append(v.stamped, ef.Data...)
	var pkts [][]byte
	v.tr.call("rtp.packetize", func() { pkts = v.packers[i].Packetize(v.stamped, now.Seconds()) })
	for _, pkt := range pkts {
		var parity []byte
		if v.rsend != nil {
			v.tr.call("recovery.send", func() { parity = v.rsend[i].OnPacket(pkt) })
		}
		v.up[i].Send(netem.Frame{Size: len(pkt) + 28, Payload: pkt})
		if parity != nil {
			v.up[i].Send(netem.Frame{Size: len(parity) + 28, Payload: parity})
		}
	}
}

func (v *videoReplay) sendReports(j int, now simtime.Time) {
	for i := 0; i < v.n; i++ {
		b := v.builders[i][j]
		if b == nil || b.Received() == 0 {
			continue
		}
		rep := b.MakeReport(now.Milliseconds())
		wire := rep.Marshal(make([]byte, 0, rtp.ReportLen))
		v.up[j].Send(netem.Frame{Size: len(wire) + 28, Payload: wire})
	}
}

func (v *videoReplay) sendNacks(j int, now simtime.Time) {
	for i := 0; i < v.n; i++ {
		rr := v.rrecv[i][j]
		if rr == nil {
			continue
		}
		v.due = rr.Tick(now.Milliseconds(), v.due[:0])
		for off := 0; off < len(v.due); off += rtp.MaxNackSeqs {
			end := min(off+rtp.MaxNackSeqs, len(v.due))
			nk := rtp.Nack{SSRC: rtp.VideoSSRC(i), Seqs: v.due[off:end]}
			wire := nk.Marshal(make([]byte, 0, 8+2*(end-off)))
			v.up[j].Send(netem.Frame{Size: len(wire) + 28, Payload: wire})
		}
	}
}

// arrive handles one frame reaching participant me, in the order the
// session's handlers take it: a report or NACK about a stream me sends,
// parity for a stream me receives, then media.
func (v *videoReplay) arrive(me int, f netem.Frame, now simtime.Time) {
	p := f.Payload
	if v.builders != nil && rtp.IsReport(p) {
		var rep rtp.ReceiverReport
		if rep.Unmarshal(p) == nil {
			if i, audio, ok := rtp.SenderOf(rep.SSRC); ok && !audio && i == me {
				v.feedback(me, &rep, now)
			}
		}
		return
	}
	if v.rrecv != nil && rtp.IsNack(p) {
		if v.nack.Unmarshal(p) != nil {
			return
		}
		if i, audio, ok := rtp.SenderOf(v.nack.SSRC); ok && !audio && i == me {
			var rtx [][]byte
			v.tr.call("recovery.send", func() { rtx = v.rsend[me].OnNack(&v.nack) })
			for _, pkt := range rtx {
				v.up[me].Send(netem.Frame{Size: len(pkt) + 28, Payload: pkt})
			}
		}
		return
	}
	if v.rrecv != nil && rtp.IsParity(p) {
		i, audio, ok := rtp.SenderOf(rtp.ParitySSRC(p))
		if ok && !audio && i != me && i < v.n {
			var rec []byte
			v.tr.call("recovery.recv", func() { rec = v.rrecv[i][me].OnParity(p, now.Milliseconds()) })
			if rec != nil {
				v.push(i, me, rec)
			}
		}
		return
	}
	var h rtp.Header
	if _, err := h.Unmarshal(p); err != nil || h.PayloadType == rtp.PTGenericAudio {
		return
	}
	if i, audio, ok := rtp.SenderOf(h.SSRC); ok && !audio && i < v.n && i != me {
		v.receive(i, me, &h, f, now)
	}
}

// feedback delivers a receiver report to sender i, as the session's
// onFeedback does.
func (v *videoReplay) feedback(i int, rep *rtp.ReceiverReport, now simtime.Time) {
	if v.rsend != nil {
		v.rsend[i].OnReportLoss(rep.FractionLost)
	}
	if v.ctrls == nil {
		return
	}
	v.tr.call("ratecontrol.report", func() {
		c := v.ctrls[i]
		c.OnFeedback(ratecontrol.Feedback{AtMs: now.Milliseconds(), Report: *rep})
		target := c.TargetBps()
		if v.rsend != nil {
			target = ratecontrol.ApplyOverhead(target, v.rsend[i].BudgetOverheadRatio(), ratecontrol.DefaultMinBps)
		}
		v.encs[i].SetTargetBps(target)
	})
}

// receive runs one media packet of sender i's stream through receiver j,
// as the session's deliverVideo does.
func (v *videoReplay) receive(i, j int, h *rtp.Header, f netem.Frame, now simtime.Time) {
	var rr *recovery.Receiver
	if v.rrecv != nil {
		rr = v.rrecv[i][j]
	}
	if b := v.builders; b != nil && (rr == nil || !rr.IsLate(h.Seq)) {
		b[i][j].OnPacket(h.Seq, float64(h.Timestamp)/90, now.Milliseconds(), f.Size)
	}
	if rr != nil {
		var rec []byte
		v.tr.call("recovery.recv", func() { rec = rr.OnMedia(f.Payload, now.Milliseconds()) })
		if rec != nil {
			v.push(i, j, rec)
		}
	}
	if h.Timestamp > v.gcTicks {
		v.depacks[i][j].GC(h.Timestamp - v.gcTicks)
	}
	v.push(i, j, f.Payload)
}

func (v *videoReplay) push(i, j int, p []byte) {
	var frames [][]byte
	var err error
	v.tr.call("rtp.depacketize", func() { frames, err = v.depacks[i][j].Push(p) })
	if err != nil {
		return
	}
	for _, f := range frames {
		if len(f) < 9 {
			continue
		}
		// Undecodable frames are part of the workload (the timed pass
		// counts them in vca.decoded_frac); the replay only times them.
		v.tr.call("video.validate", func() { _ = v.decs[i][j].Validate(f[8:]) })
	}
}

func putTime(b []byte, t simtime.Time) {
	for k := 0; k < 8; k++ {
		b[k] = byte(uint64(t) >> (8 * (7 - k)))
	}
}

// -------------------------------------------------------------- spatial

// spatialReplay mirrors a spatial-persona session with the session's own
// QUIC topology: every user's uplink conn to the server, and one
// server-to-receiver conn pair per (sender, receiver), all multiplexed on
// the users' access links.
type spatialReplay struct {
	*replay
	n        int
	fps      float64
	decoders [][]*semantic.Decoder
	inbox    []inMsg
	msgs     int // messages delivered by any conn
}

type inMsg struct {
	from, to int
	data     []byte
}

func newSpatialReplay(r *replay) (*spatialReplay, error) {
	sc := r.links.sc
	n := len(sc.Participants)
	s := &spatialReplay{replay: r, n: n, fps: sc.SpatialFPS}
	up, down, links, rng := r.links.build(r.sched)
	r.links.record(links)
	upDemux := make([]*quic.Demux, n)
	downDemux := make([]*quic.Demux, n)
	for i := 0; i < n; i++ {
		upDemux[i], downDemux[i] = quic.NewDemux(), quic.NewDemux()
		i := i
		up[i].SetHandler(func(now simtime.Time, f netem.Frame) { upDemux[i].Handler(now, f) })
		down[i].SetHandler(func(now simtime.Time, f netem.Frame) { downDemux[i].Handler(now, f) })
	}
	quicUp := make([]*quic.Conn, n)
	quicDown := make([][]*quic.Conn, n)
	s.decoders = make([][]*semantic.Decoder, n)
	for i := 0; i < n; i++ {
		quicDown[i] = make([]*quic.Conn, n)
		s.decoders[i] = make([]*semantic.Decoder, n)
	}
	for i := 0; i < n; i++ {
		i := i
		quicUp[i] = quic.NewConn(r.sched, up[i], quic.Config{ConnID: uint64(100 + i), PeerID: uint64(200 + i), Key: 0x5A, IsClient: true})
		downDemux[i].Add(quicUp[i])
		srv := quic.NewConn(r.sched, down[i], quic.Config{ConnID: uint64(200 + i), PeerID: uint64(100 + i), Key: 0x5A})
		upDemux[i].Add(srv)
		srv.OnMessage(func(m quic.Message) {
			s.msgs++
			for j := 0; j < n; j++ {
				if j != i {
					quicDown[i][j].SendMessage(m.Data)
				}
			}
		})
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			i, j := i, j
			srvSide := quic.NewConn(r.sched, down[j], quic.Config{ConnID: uint64(1000 + i*16 + j), PeerID: uint64(2000 + i*16 + j), Key: 0x5A, IsClient: true})
			quicDown[i][j] = srvSide
			upDemux[j].Add(srvSide)
			userSide := quic.NewConn(r.sched, up[j], quic.Config{ConnID: uint64(2000 + i*16 + j), PeerID: uint64(1000 + i*16 + j), Key: 0x5A})
			downDemux[j].Add(userSide)
			s.decoders[i][j] = semantic.NewDecoder()
			userSide.OnMessage(func(m quic.Message) {
				s.msgs++
				// Data is loaned until the callback returns; validation
				// runs after the event, outside the QUIC span. Inbox
				// buffers are reused so the copy does not allocate.
				if len(s.inbox) == cap(s.inbox) {
					s.inbox = append(s.inbox, inMsg{})[:len(s.inbox)]
				}
				s.inbox = s.inbox[:len(s.inbox)+1]
				in := &s.inbox[len(s.inbox)-1]
				in.from, in.to, in.data = i, j, append(in.data[:0], m.Data...)
			})
		}
	}
	interval := simtime.Duration(float64(simtime.Second) / sc.SpatialFPS)
	for i := 0; i < n; i++ {
		i := i
		gen := keypoints.NewGenerator(rng.Split(fmt.Sprintf("kp%d", i)), keypoints.MotionConfig{
			FPS: sc.SpatialFPS, Expressiveness: 1, SpeakingFraction: 1 / float64(n), SensorNoise: 0.0004,
		})
		enc := semantic.NewEncoder(sc.SemanticMode)
		var stamped []byte
		simtime.NewTicker(r.sched, interval, func(now simtime.Time) {
			var f keypoints.Frame
			s.tr.call("keypoints.next", func() { f = gen.Next() })
			var wire []byte
			s.tr.call("semantic.encode", func() { wire = enc.Encode(&f) })
			s.frames++
			s.entropyReplay(wire[10:])
			stamped = append(append(stamped[:0], make([]byte, 8)...), wire...)
			putTime(stamped, now)
			quicUp[i].SendMessage(stamped)
		})
		audio := make([]byte, 60)
		simtime.NewTicker(r.sched, 20*simtime.Millisecond, func(simtime.Time) { quicUp[i].SendMessage(audio) })
	}
	if err := r.links.bindImpairments(r.sched, up); err != nil {
		return nil, err
	}
	return s, nil
}

// run drives the replay and reports whether it reached the session's end.
// The QUIC span is grouped: all event time between
// two persona frame ticks, less the nested spans, over the messages any conn
// delivered in that time. It covers QUIC, the netem links beneath it and
// the scheduler.
func (s *spatialReplay) run() bool {
	interval := simtime.Duration(float64(simtime.Second) / s.fps)
	groupEnd := simtime.Time(interval)
	var groupNs float64
	nestedA0, msgs0 := s.tr.nestedAllocs, s.msgs
	stepNested0 := s.tr.nestedNs
	var m0 uint64
	if s.tr.countAllocs {
		m0 = s.tr.mallocs()
	}
	done := s.runSteps(func(stepNs float64) {
		groupNs += stepNs - (s.tr.nestedNs - stepNested0)
		if s.sched.Now() >= groupEnd {
			if s.tr.countAllocs {
				allocs := s.tr.mallocs() - m0 - (s.tr.nestedAllocs - nestedA0)
				s.tr.groupAllocs("quic.message", allocs, s.msgs-msgs0)
				m0 = s.tr.mallocs()
			} else {
				s.tr.groupTime("quic.message", groupNs, s.msgs-msgs0)
			}
			groupNs, nestedA0, msgs0 = 0, s.tr.nestedAllocs, s.msgs
			groupEnd = s.sched.Now().Add(interval)
		}
		for _, m := range s.inbox {
			if len(m.data) < 72 {
				continue // audio
			}
			var err error
			s.tr.call("semantic.validate", func() { err = s.decoders[m.from][m.to].Validate(m.data[8:]) })
			if err != nil {
				s.fail(fmt.Errorf("semantic validate %d->%d: %w", m.from, m.to, err))
			}
		}
		s.inbox = s.inbox[:0]
		stepNested0 = s.tr.nestedNs
	})
	return done
}

// ---------------------------------------------------------------- passes

// replaySession replays the session of w with the given seed until its end
// or the deadline, and reports whether it reached the end.
func replaySession(tr *tracer, w *workload, seed int64, deadline time.Time) (*replay, bool, error) {
	links, err := newReplayLinks(w, seed)
	if err != nil {
		return nil, false, err
	}
	r := &replay{tr: tr, w: w, sched: simtime.NewScheduler(), links: links, deadline: deadline,
		cmp: entropy.NewCompressor(), dcmp: entropy.NewDecompressor()}
	var done bool
	if w.config(0).App == vca.FaceTime {
		s, err := newSpatialReplay(r)
		if err != nil {
			return nil, false, err
		}
		done = s.run()
	} else {
		if _, err := newVideoReplay(r); err != nil {
			return nil, false, err
		}
		done = r.runSteps(nil)
	}
	return r, done, r.err
}

// mirrors checks that a finished replay sent what the session with its seed
// sent (c is that session's counts): the same frames, and the same frames
// and bytes into the participants' uplinks. A replay that differs no longer
// follows the session's frame path, and its spans would measure another
// workload.
func (r *replay) mirrors(c counts) error {
	up, upB := r.links.uplinkIngress()
	if float64(r.frames) != c.FramesSent || float64(up) != c.UplinkSent || float64(upB) != c.UplinkBytes {
		return fmt.Errorf("%d frames, %d uplink frames of %d bytes sent; the session sent %.0f, %.0f and %.0f",
			r.frames, up, upB, c.FramesSent, c.UplinkSent, c.UplinkBytes)
	}
	return nil
}

// netemPass sends the recorded ingress through fresh links built the same
// way, with the same random streams and impairment schedules, so each frame
// meets the same shaper state and drop decisions, and times the links
// alone: sends plus the scheduler dispatching their deliveries, per packet,
// grouped by 10 ms of virtual time.
func netemPass(tr *tracer, rl *replayLinks) error {
	sched := simtime.NewScheduler()
	up, _, links, _ := rl.build(sched)
	for _, l := range links {
		l.SetHandler(func(simtime.Time, netem.Frame) {})
	}
	if err := rl.bindImpairments(sched, up); err != nil {
		return err
	}
	const groupSpan = 10 * simtime.Millisecond
	for lo := 0; lo < len(rl.rec); {
		end := rl.rec[lo].at.Add(groupSpan)
		hi := lo
		for hi < len(rl.rec) && rl.rec[hi].at < end {
			hi++
		}
		m0 := tr.mallocs()
		t0 := time.Now()
		for _, in := range rl.rec[lo:hi] {
			sched.RunUntil(in.at)
			links[in.link].Send(netem.Frame{Size: int(in.size)})
		}
		sched.RunUntil(end)
		d := time.Since(t0)
		tr.groupTime("netem.packet", float64(d), hi-lo)
		tr.groupAllocs("netem.packet", tr.mallocs()-m0, hi-lo)
		lo = hi
	}
	return nil
}

// ---------------------------------------------------------------- report

// spanMetric maps a span onto its reported metrics: p50 and p90 in unit, and
// allocations per call.
type spanMetric struct {
	span, unit string
	perNs      float64
}

var spanMetrics = []spanMetric{
	{"video.scene", "ms", 1e6},
	{"video.encode", "ms", 1e6},
	{"video.encode_key", "ms", 1e6},
	{"video.validate", "ms", 1e6},
	{"entropy.compress", "ms", 1e6},
	{"entropy.decompress", "ms", 1e6},
	{"keypoints.next", "us", 1e3},
	{"semantic.encode", "us", 1e3},
	{"semantic.validate", "us", 1e3},
	{"quic.message", "us", 1e3},
	{"rtp.packetize", "us", 1e3},
	{"rtp.depacketize", "us", 1e3},
	{"netem.packet", "us", 1e3},
	{"simtime.event", "ns", 1},
	{"recovery.send", "us", 1e3},
	{"recovery.recv", "us", 1e3},
	{"ratecontrol.report", "us", 1e3},
}

// coverageSpans are the spans whose calls do not nest inside one another;
// their in-session time, summed, is what traced.coverage compares with
// run_s. The entropy spans nest inside the encoders and the decoders, and
// netem and the scheduler inside quic.message, so they are left out where
// an enclosing span already counts them.
var coverageSpans = []string{
	"video.scene", "video.encode", "video.encode_key", "video.validate", "rtp.packetize",
	"rtp.depacketize", "recovery.send", "recovery.recv", "ratecontrol.report",
	"keypoints.next", "semantic.encode", "semantic.validate", "quic.message",
}

func tracedMain(w *workload, seed int64, seconds float64, countsIn string, log io.Writer) (result, error) {
	if countsIn == "" {
		return result{}, fmt.Errorf("traced: -counts-in is required (run the timed pass first)")
	}
	b, err := os.ReadFile(countsIn)
	if err != nil {
		return result{}, err
	}
	var cf countsFile
	if err := json.Unmarshal(b, &cf); err != nil {
		return result{}, fmt.Errorf("traced: %s: %w", countsIn, err)
	}
	tr := newTracer()
	start := time.Now()
	// The replays take most of the budget; the netem pass runs on what the
	// first one recorded.
	deadline := start.Add(time.Duration(seconds * 0.8 * float64(time.Second)))
	var rl *replayLinks
	replays, frames, checked := 0, 0, 0
	var rawB, encB float64
	var failures []string
	// Replay 0 counts allocations and is not timed; the others are timed.
	for k := 0; time.Now().Before(deadline); k++ {
		tr.countAllocs = k == 0
		r, done, err := replaySession(tr, w, sessionSeed(seed, w, k), deadline)
		if err != nil {
			return result{}, fmt.Errorf("traced replay %d: %w", k, err)
		}
		if done && k < len(cf.Sessions) {
			checked++
			if err := r.mirrors(cf.Sessions[k]); err != nil {
				failures = append(failures, fmt.Sprintf("replay %d: %v", k, err))
			}
		}
		rawB += r.rawB
		encB += r.encB
		if k == 0 {
			// One session's traffic is enough for the netem pass, and
			// bounds its memory.
			rl = r.links
			continue
		}
		replays++
		frames += r.frames
	}
	tr.countAllocs = false
	if checked == 0 {
		failures = append(failures, "no replay ran to the end of its session, so none was checked against the timed sessions")
	}
	if replays == 0 {
		return result{}, fmt.Errorf("traced: the allocation replay took the whole %.0fs budget; no timed replay ran", seconds)
	}
	if err := netemPass(tr, rl); err != nil {
		return result{}, err
	}

	c := cf.Counts
	metrics := map[string]metric{
		"simtime.events":          {c.Events, "count", minSessions},
		"netem.sent":              {c.NetemSent, "count", minSessions},
		"netem.drop_frac":         {ratio(c.NetemDropped, c.NetemSent), "frac", minSessions},
		"vca.frames_sent":         {c.FramesSent, "count", minSessions},
		"vca.decoded_frac":        {ratio(c.FramesDecoded, c.FramesExpected), "frac", minSessions},
		"vca.unavailable_frac":    {c.Unavailable, "frac", minSessions},
		"recovery.repaired_frac":  {ratio(c.Repaired, c.Missed), "frac", minSessions},
		"recovery.overhead_frac":  {c.Overhead, "frac", minSessions},
		"ratecontrol.target_mbps": {c.TargetBps / 1e6, "Mbps", minSessions},
		"host.raw_run_s":          {cf.RawRunSP50, "s", cf.SessionsRun},
		"entropy.ratio":           {ratio(rawB, encB), "ratio", int(tr.get("entropy.compress").calls)},
	}
	for _, sm := range spanMetrics {
		s := tr.get(sm.span)
		metrics[sm.span+"_"+sm.unit] = metric{quantile(s.samples, 0.5) / sm.perNs, sm.unit, len(s.samples)}
		metrics[sm.span+"_p90_"+sm.unit] = metric{quantile(s.samples, 0.9) / sm.perNs, sm.unit, len(s.samples)}
		metrics[sm.span+"_allocs"] = metric{ratio(s.allocs, s.allocCalls), "count", int(s.allocCalls)}
	}
	// In-session time of each span: its replay wall time scaled from the
	// replay's frames to the timed sessions' frames; the links' share
	// scales with the frames the sessions actually sent over them. Both
	// sides are compared at the reference host speed.
	var covered float64
	if frames > 0 {
		scale := c.FramesSent / float64(frames)
		for _, name := range coverageSpans {
			covered += tr.get(name).wallNs * scale
		}
	}
	if w.config(0).App != vca.FaceTime {
		np := tr.get("netem.packet")
		covered += ratio(np.wallNs, np.calls) * c.NetemSent
	}
	covered *= calRefNs / quantile(tr.cals, 0.5)
	metrics["traced.coverage"] = metric{ratio(covered/1e9, cf.RunSMean), "frac", cf.SessionsRun}

	writeSpanTable(log, tr)
	fmt.Fprintf(log, "traced %s: %d replays, %d frames, %.1fs\n", w.name, replays, frames, time.Since(start).Seconds())
	for _, f := range failures {
		fmt.Fprintln(log, "traced:", f)
	}
	return result{Correct: len(failures) == 0, Attempted: checked, Failed: len(failures), Failures: failures, Metrics: metrics}, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeSpanTable prints every span's calls, p50, p90, mean and allocations
// per call.
func writeSpanTable(out io.Writer, tr *tracer) {
	names := make([]string, 0, len(tr.spans))
	for name := range tr.spans {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%-20s %10s %12s %12s %12s %8s\n", "span", "calls", "p50_us", "p90_us", "mean_us", "allocs")
	for _, name := range names {
		s := tr.spans[name]
		fmt.Fprintf(out, "%-20s %10.0f %12.3f %12.3f %12.3f %8.2f\n", name, s.calls,
			quantile(s.samples, 0.5)/1e3, quantile(s.samples, 0.9)/1e3, ratio(s.wallNs, s.calls)/1e3, ratio(s.allocs, s.allocCalls))
	}
}
