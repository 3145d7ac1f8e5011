package main

import (
	"fmt"

	"telepresence/internal/geo"
	"telepresence/internal/scenario"
	"telepresence/internal/simrand"
	"telepresence/internal/simtime"
	"telepresence/internal/vca"
)

// workload is one kind of call the benchmark runs over and over: a session
// configuration plus the impairment schedules bound to its uplinks.
type workload struct {
	name string
	// dur is the virtual length of one session.
	dur simtime.Duration
	// config returns the session configuration for one session seed.
	config func(seed int64) vca.SessionConfig
	// impair returns the schedule bound to each participant's uplink shaper
	// (nil entries stay clean) for a session of length d.
	impair func(d simtime.Duration) []*scenario.Schedule
}

// seedCycle is how many distinct session seeds a run cycles through. Session
// k of a run uses seed slot k%seedCycle, so the reference digests of the
// default seed cover every session a run can reach, and a slot that comes
// round again must reproduce its earlier digest exactly.
const seedCycle = 16

// defaultSeed is the benchmark seed whose session digests are pinned in
// refs.json.
const defaultSeed = 1

// sessionSeed derives the seed of session k of a run from the benchmark seed.
func sessionSeed(benchSeed int64, w *workload, k int) int64 {
	return simrand.ChildSeed(benchSeed, fmt.Sprintf("%s/%d", w.name, k%seedCycle))
}

var usLocations = []geo.Location{geo.Ashburn, geo.NewYork, geo.Chicago, geo.Austin, geo.Miami}

func participants(n int, dev vca.Device) []vca.Participant {
	parts := make([]vca.Participant, n)
	for i := range parts {
		parts[i] = vca.Participant{ID: fmt.Sprintf("u%d", i+1), Loc: usLocations[i], Device: dev}
	}
	return parts
}

func noImpairment(simtime.Duration) []*scenario.Schedule { return nil }

// The workloads. Each stresses a different set of layers; README.md gives
// the reasons and the layer-to-metric map.
var workloads = []*workload{
	{
		// Three-party Teams call through the SFU at 1280x720, 30 fps, on a
		// clean network: scene synthesis, encode and validate on large
		// frames dominate; the spatial path is idle.
		name: "sfu2d",
		dur:  2 * simtime.Second, // one 60-frame GOP per sender
		config: func(seed int64) vca.SessionConfig {
			sc := vca.DefaultSessionConfig(vca.Teams, participants(3, vca.MacBook))
			sc.Seed = seed
			return sc
		},
		impair: noImpairment,
	},
	{
		// Five-party all-Vision-Pro FaceTime call (fig7's largest case):
		// keypoints, semantic coding of small payloads, QUIC, netem fan-out
		// and the scheduler; no video at all.
		name: "spatial5",
		dur:  10 * simtime.Second,
		config: func(seed int64) vca.SessionConfig {
			sc := vca.DefaultSessionConfig(vca.FaceTime, participants(vca.MaxSpatialUsers, vca.VisionPro))
			sc.Seed = seed
			return sc
		},
		impair: noImpairment,
	},
	{
		// Two-party Zoom P2P call at 640x360, 15 fps under a bandwidth ramp
		// on the forward path and burst loss on the reverse path, with gcc
		// rate control and hybrid recovery: the only workload that takes the
		// loss, NACK, parity and retargeting paths.
		name: "lossy2d",
		dur:  12 * simtime.Second,
		config: func(seed int64) vca.SessionConfig {
			sc := vca.DefaultSessionConfig(vca.Zoom, participants(2, vca.MacBook))
			sc.Seed = seed
			sc.VideoFPS = 15
			sc.FreshnessLimit = 200 * simtime.Millisecond
			sc.RateControl = &vca.RateControlConfig{Controller: "gcc"}
			sc.Recovery = &vca.RecoveryConfig{Strategy: "hybrid"}
			return sc
		},
		impair: func(d simtime.Duration) []*scenario.Schedule {
			return []*scenario.Schedule{
				scenario.BandwidthRamp(4e6, 0.5e6, d/4, d/8, 5*d/8, d/8),
				scenario.BurstLoss(scenario.BurstParams{GoodToBad: 0.02, BadToGood: 0.25, LossBad: 0.9}, 0, 0),
			}
		},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// sessionConfig returns the configuration of one session of length d.
func (w *workload) sessionConfig(seed int64, d simtime.Duration) vca.SessionConfig {
	sc := w.config(seed)
	sc.Duration = d
	return sc
}

// build is the set-up the benchmark times: NewSession plus binding the
// workload's impairment schedules.
func (w *workload) build(seed int64, d simtime.Duration) (*vca.Session, error) {
	s, err := vca.NewSession(w.sessionConfig(seed, d))
	if err != nil {
		return nil, err
	}
	for i, sch := range w.impair(d) {
		if sch == nil {
			continue
		}
		if err := sch.Bind(s.Scheduler(), s.UplinkShaper(i)); err != nil {
			return nil, fmt.Errorf("bind uplink %d: %w", i, err)
		}
	}
	return s, nil
}
