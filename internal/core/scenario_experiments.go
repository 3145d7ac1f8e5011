package core

import (
	"fmt"

	"telepresence/internal/geo"
	"telepresence/internal/scenario"
	"telepresence/internal/simrand"
	"telepresence/internal/simtime"
	"telepresence/internal/vca"
)

// The scenario experiments run full spatial sessions under time-varying
// impairment schedules — the paper's §4.3 methodology made declarative.
// Each is registered twice: as a fixed-grid fleet experiment (one rep per
// default-grid cell, so the golden suite pins its rows) and as a sweep
// target (vpfleet sweep) whose grid axes are the schedule parameters.
//
// A cell's randomness derives from the run seed and the cell's parameter
// values alone (SweepCellOptions), so a sweep cell at the default
// parameters reproduces the registry experiment's row byte-for-byte, and
// reshaping a grid never changes any cell's rows.

// SweepCellOptions derives the per-cell options for one sweep cell: the
// cell's seed is a pure function of the run seed, the target name, and the
// canonical parameter label — never the cell's position in a grid.
func SweepCellOptions(opts Options, target string, params map[string]float64) Options {
	opts.Seed = simrand.ChildSeed(opts.Seed, "sweep/"+target+"/"+scenario.ParamLabel(params))
	return opts
}

// scenarioSessionConfig is the standard two-user spatial session the
// scenario experiments impair: FaceTime between two Vision Pros,
// Ashburn-New York, like the paper's testbed calls. Schedules need time to
// bite, so the session never runs shorter than 12 s regardless of scale.
func scenarioSessionConfig(seed int64, dur simtime.Duration) vca.SessionConfig {
	sc := vca.DefaultSessionConfig(vca.FaceTime, []vca.Participant{
		{ID: "u1", Loc: geo.Ashburn, Device: vca.VisionPro},
		{ID: "u2", Loc: geo.NewYork, Device: vca.VisionPro},
	})
	if dur < 12*simtime.Second {
		dur = 12 * simtime.Second
	}
	sc.Duration = dur
	sc.Seed = seed
	return sc
}

// runSessionCell runs one sweep cell's session: it attaches the cell's
// telemetry and profiler (when cell asks for them) to sc, builds the
// session, lets bind install schedules, shaper settings and probes, runs
// it, and flushes the telemetry and profile outputs. cell is the
// SweepCellOptions-derived options; target and params name the cell's
// output files.
func runSessionCell(cell Options, target string, params map[string]float64, sc vca.SessionConfig,
	bind func(*vca.Session) error) (*vca.Session, *vca.Results, error) {
	label := scenario.ParamLabel(params)
	tc, tdone, err := cellTelemetry(cell, target, label)
	if err != nil {
		return nil, nil, err
	}
	sc.Telemetry = tc
	pp, pdone, err := cellProf(cell, target, label)
	if err != nil {
		return nil, nil, err
	}
	sc.Prof = pp
	sess, err := vca.NewSession(sc)
	if err != nil {
		return nil, nil, err
	}
	if err := bind(sess); err != nil {
		return nil, nil, err
	}
	res := sess.Run()
	if err := tdone(); err != nil {
		return nil, nil, err
	}
	if err := pdone(); err != nil {
		return nil, nil, err
	}
	return sess, res, nil
}

// --------------------------------------------------------------- handover

// HandoverRow is one cell of the handover experiment: a mid-call path
// switch modeled as a one-way delay step of StepDelayMs for the middle
// third of the session.
type HandoverRow struct {
	StepDelayMs float64
	// UnavailableFrac is the fraction of the session the receiver's persona
	// showed "poor connection".
	UnavailableFrac float64
	// MeanLatencyMs is the mean capture-to-decode frame latency.
	MeanLatencyMs float64
	// DecodedFrac is receiver decodes over sender emissions.
	DecodedFrac float64
}

// DefaultHandoverDelaysMs is the registry experiment's delay-step grid,
// inside the paper's 0-1,000 ms injection range.
func DefaultHandoverDelaysMs() []float64 { return []float64{100, 500, 1000} }

// handoverCell runs one delay-step cell.
func handoverCell(opts Options, params map[string]float64) (HandoverRow, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return HandoverRow{}, err
	}
	cell := SweepCellOptions(opts, "handover", params)
	sc := scenarioSessionConfig(cell.Seed, cell.SessionDuration)
	stepMs := params["delay_ms"]
	_, res, err := runSessionCell(cell, "handover", params, sc, func(sess *vca.Session) error {
		sched := scenario.DelayStep(stepMs, sc.Duration/3, 2*sc.Duration/3)
		return sched.Bind(sess.Scheduler(), sess.UplinkShaper(0))
	})
	if err != nil {
		return HandoverRow{}, err
	}
	return HandoverRow{
		StepDelayMs:     stepMs,
		UnavailableFrac: res.Users[1].UnavailableFrac,
		MeanLatencyMs:   res.Users[1].MeanFrameLatencyMs,
		DecodedFrac:     decodedFrac(res, 0, 1),
	}, nil
}

// decodedFrac is receiver j's decode count over sender i's emissions.
func decodedFrac(res *vca.Results, i, j int) float64 {
	if res.Users[i].FramesSent == 0 {
		return 0
	}
	return float64(res.Users[j].FramesDecoded) / float64(res.Users[i].FramesSent)
}

// -------------------------------------------------------------- burstloss

// BurstLossRow is one cell of the burst-loss experiment: a Gilbert-Elliott
// channel on the sender's uplink for the whole session.
type BurstLossRow struct {
	GoodToBad float64
	BadToGood float64
	LossBad   float64
	// MeasuredLoss is the uplink's realized frame-loss fraction.
	MeasuredLoss    float64
	UnavailableFrac float64
	MeanLatencyMs   float64
	DecodedFrac     float64
}

// burstLossGrid is the registry experiment's default channel grid: light,
// moderate and heavy bursting (mean burst lengths 3.3, 4 and 6.7 frames).
var burstLossGrid = []map[string]float64{
	{"p_good_bad": 0.005, "p_bad_good": 0.3, "loss_bad": 0.9},
	{"p_good_bad": 0.02, "p_bad_good": 0.25, "loss_bad": 0.9},
	{"p_good_bad": 0.05, "p_bad_good": 0.15, "loss_bad": 0.95},
}

// burstParams reads a cell's Gilbert-Elliott channel parameters.
func burstParams(params map[string]float64) scenario.BurstParams {
	return scenario.BurstParams{
		GoodToBad: params["p_good_bad"],
		BadToGood: params["p_bad_good"],
		LossBad:   params["loss_bad"],
	}
}

// burstLossCell runs one Gilbert-Elliott cell.
func burstLossCell(opts Options, params map[string]float64) (BurstLossRow, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return BurstLossRow{}, err
	}
	cell := SweepCellOptions(opts, "burstloss", params)
	sc := scenarioSessionConfig(cell.Seed, cell.SessionDuration)
	bp := burstParams(params)
	sess, res, err := runSessionCell(cell, "burstloss", params, sc, func(sess *vca.Session) error {
		return scenario.BurstLoss(bp, 0, 0).Bind(sess.Scheduler(), sess.UplinkShaper(0))
	})
	if err != nil {
		return BurstLossRow{}, err
	}
	up := sess.UplinkStats(0)
	var measured float64
	if up.SentFrames > 0 {
		measured = float64(up.DroppedLoss) / float64(up.SentFrames)
	}
	return BurstLossRow{
		GoodToBad: bp.GoodToBad, BadToGood: bp.BadToGood, LossBad: bp.LossBad,
		MeasuredLoss:    measured,
		UnavailableFrac: res.Users[1].UnavailableFrac,
		MeanLatencyMs:   res.Users[1].MeanFrameLatencyMs,
		DecodedFrac:     decodedFrac(res, 0, 1),
	}, nil
}

// ------------------------------------------------------------- congestion

// CongestionRow is one cell of the congestion experiment: the uplink's
// rate cap ramps from StartMbps down to FloorMbps and back over the middle
// of the session, modeling congestion onset and recovery.
type CongestionRow struct {
	StartMbps float64
	FloorMbps float64
	// QueueDropFrac is the uplink's drop-tail overflow fraction — nonzero
	// only while the shrinking cap makes the serializer queue bite.
	QueueDropFrac   float64
	UnavailableFrac float64
	MeanLatencyMs   float64
	DecodedFrac     float64
}

// DefaultCongestionFloorsMbps is the registry experiment's floor grid,
// straddling the spatial persona's ~1.5 Mbps uplink demand.
func DefaultCongestionFloorsMbps() []float64 { return []float64{2.0, 1.0, 0.5} }

// congestionCell runs one bandwidth-ramp cell. The ramp falls over
// [D/4, D/4+D/8], holds the floor until 5D/8, rises back over D/8, then
// clears.
func congestionCell(opts Options, params map[string]float64) (CongestionRow, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return CongestionRow{}, err
	}
	cell := SweepCellOptions(opts, "congestion", params)
	sc := scenarioSessionConfig(cell.Seed, cell.SessionDuration)
	start, floor := params["start_mbps"]*1e6, params["floor_mbps"]*1e6
	if !(floor > 0) || !(start > 0) {
		return CongestionRow{}, fmt.Errorf("congestion: start_mbps %g and floor_mbps %g must both be positive",
			params["start_mbps"], params["floor_mbps"])
	}
	if floor > start {
		return CongestionRow{}, fmt.Errorf("congestion: floor %g Mbps above start %g Mbps",
			params["floor_mbps"], params["start_mbps"])
	}
	d := sc.Duration
	sess, res, err := runSessionCell(cell, "congestion", params, sc, func(sess *vca.Session) error {
		sched := scenario.BandwidthRamp(start, floor, d/4, d/8, 5*d/8, d/8)
		return sched.Bind(sess.Scheduler(), sess.UplinkShaper(0))
	})
	if err != nil {
		return CongestionRow{}, err
	}
	up := sess.UplinkStats(0)
	var qdrop float64
	if up.SentFrames > 0 {
		qdrop = float64(up.DroppedQueue) / float64(up.SentFrames)
	}
	return CongestionRow{
		StartMbps: params["start_mbps"], FloorMbps: params["floor_mbps"],
		QueueDropFrac:   qdrop,
		UnavailableFrac: res.Users[1].UnavailableFrac,
		MeanLatencyMs:   res.Users[1].MeanFrameLatencyMs,
		DecodedFrac:     decodedFrac(res, 0, 1),
	}, nil
}

// ---------------------------------------------------------- registration

// withDefaults overlays grid onto the target's defaults so every recognized
// parameter is present.
func withDefaults(t SweepTarget, grid map[string]float64) map[string]float64 {
	p := t.DefaultParams()
	//vplint:allow maporder(keyed map-into-map overlay; each key is written once, so order cannot matter)
	for k, v := range grid {
		p[k] = v
	}
	return p
}

func init() {
	handover := SweepTarget{
		Name: "handover", Desc: "§4.3 scenario: mid-call one-way delay step (path handover)",
		Row: HandoverRow{},
		Params: []SweepParam{
			{Name: "delay_ms", Default: 500, Desc: "injected one-way delay during the step"},
		},
		Run: func(o Options, p map[string]float64) ([]Row, error) { return rows(handoverCell(o, p)) },
	}
	burst := SweepTarget{
		Name: "burstloss", Desc: "§4.3 scenario: Gilbert-Elliott burst loss on the uplink",
		Row: BurstLossRow{},
		Params: []SweepParam{
			{Name: "p_good_bad", Default: 0.02, Desc: "per-frame P(good->bad)"},
			{Name: "p_bad_good", Default: 0.25, Desc: "per-frame P(bad->good)"},
			{Name: "loss_bad", Default: 0.9, Desc: "loss probability in the bad state"},
		},
		Run: func(o Options, p map[string]float64) ([]Row, error) { return rows(burstLossCell(o, p)) },
	}
	congestion := SweepTarget{
		Name: "congestion", Desc: "§4.3 scenario: mid-call bandwidth ramp to a floor and back",
		Row: CongestionRow{},
		Params: []SweepParam{
			{Name: "start_mbps", Default: 4, Desc: "uncongested rate cap"},
			{Name: "floor_mbps", Default: 1, Desc: "rate floor at peak congestion"},
		},
		Run: func(o Options, p map[string]float64) ([]Row, error) { return rows(congestionCell(o, p)) },
	}
	RegisterSweep(handover)
	RegisterSweep(burst)
	RegisterSweep(congestion)

	Register(Experiment{
		Name: "handover", Desc: handover.Desc + " (default grid)",
		Row: HandoverRow{}, Reps: fixed(len(DefaultHandoverDelaysMs())),
		Run: func(o Options, rep int) ([]Row, error) {
			p := withDefaults(handover, map[string]float64{"delay_ms": DefaultHandoverDelaysMs()[rep]})
			return rows(handoverCell(o, p))
		},
	})
	Register(Experiment{
		Name: "burstloss", Desc: burst.Desc + " (default grid)",
		Row: BurstLossRow{}, Reps: fixed(len(burstLossGrid)),
		Run: func(o Options, rep int) ([]Row, error) {
			return rows(burstLossCell(o, withDefaults(burst, burstLossGrid[rep])))
		},
	})
	Register(Experiment{
		Name: "congestion", Desc: congestion.Desc + " (default grid)",
		Row: CongestionRow{}, Reps: fixed(len(DefaultCongestionFloorsMbps())),
		Run: func(o Options, rep int) ([]Row, error) {
			p := withDefaults(congestion, map[string]float64{"floor_mbps": DefaultCongestionFloorsMbps()[rep]})
			return rows(congestionCell(o, p))
		},
	})
}
