package fleet

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"telepresence/internal/core"
	"telepresence/internal/telemetry"
)

// readDir returns name → contents for every file in dir.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// TestTraceFilesDeterministicAcrossWorkers pins the fleet-level telemetry
// determinism contract: per-cell trace and metrics files are byte-identical
// whether the cells run sequentially or race across eight workers, because
// traces are keyed by virtual time and cell-derived seeds only.
func TestTraceFilesDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full burstloss sessions")
	}
	exps, err := Select("burstloss")
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Quick(5)
	run := func(workers int) map[string][]byte {
		dir := t.TempDir()
		o := opts
		o.TraceDir, o.MetricsDir = dir, dir
		if _, _, err := streamMem(exps, o, Config{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		return readDir(t, dir)
	}
	seq := run(1)
	par := run(8)

	if len(seq) == 0 {
		t.Fatal("no telemetry files written")
	}
	var traces int
	for name, b := range seq {
		pb, ok := par[name]
		if !ok {
			t.Errorf("parallel run missing %s", name)
			continue
		}
		if !bytes.Equal(b, pb) {
			t.Errorf("%s differs between workers=1 and workers=8", name)
		}
		if filepath.Ext(name) == ".jsonl" {
			traces++
			sum, err := telemetry.Summarize(bytes.NewReader(b))
			if err != nil {
				t.Errorf("%s does not validate: %v", name, err)
			} else if sum.Events == 0 {
				t.Errorf("%s is empty", name)
			}
		}
	}
	if want := len(par); len(seq) != want {
		t.Errorf("file count differs: %d vs %d", len(seq), want)
	}
	// One trace per default-grid cell.
	if want := exps[0].Reps(opts); traces != want {
		t.Errorf("%d trace files for %d cells", traces, want)
	}
}

// TestManifestTimingBreakdown pins the run-manifest throughput fields:
// per-experiment and run-level rows/sec derived from rows and wall time.
func TestManifestTimingBreakdown(t *testing.T) {
	results := []ExperimentResult{
		{
			Experiment: core.Experiment{Name: "a"},
			RowCount:   10,
			Reps:       2,
			Wall:       2 * time.Second,
		},
		{
			Experiment: core.Experiment{Name: "b"},
			Reps:       1,
			Err:        os.ErrClosed,
		},
	}
	m := NewManifest(core.Options{Seed: 1}, 4, 5*time.Second, results)
	if m.Format != ManifestFormat {
		t.Errorf("format %q", m.Format)
	}
	if m.Rows != 10 || m.RowsPerSec != 2 {
		t.Errorf("run totals rows=%d rows/sec=%g, want 10 and 2", m.Rows, m.RowsPerSec)
	}
	if m.Experiments[0].RowsPerSec != 5 {
		t.Errorf("experiment a rows/sec %g, want 5", m.Experiments[0].RowsPerSec)
	}
	if m.Experiments[1].RowsPerSec != 0 || m.Experiments[1].Error == "" {
		t.Errorf("failed experiment manifest %+v", m.Experiments[1])
	}
}

// TestSweepManifestCellTimings pins the sweep manifest's per-cell timing
// breakdown and run-level throughput.
func TestSweepManifestCellTimings(t *testing.T) {
	spec := SweepSpec{Target: "burstloss", Axes: []Axis{{Name: "loss_bad", Values: []float64{0.5, 0.9}}}}
	results := []SweepCellResult{
		{Cell: SweepCell{Index: 0, Label: "loss_bad-0.5"}, RowCount: 1, Wall: 500 * time.Millisecond},
		{Cell: SweepCell{Index: 1, Label: "loss_bad-0.9"}, RowCount: 3, Wall: time.Second},
	}
	m := NewSweepManifest(spec, core.Options{Seed: 1}, 2, 2*time.Second, results)
	if m.Format != SweepManifestFormat {
		t.Errorf("format %q", m.Format)
	}
	if m.Rows != 4 || m.RowsPerSec != 2 {
		t.Errorf("totals rows=%d rows/sec=%g", m.Rows, m.RowsPerSec)
	}
	if len(m.CellTimings) != 2 {
		t.Fatalf("%d cell timings", len(m.CellTimings))
	}
	sort.Slice(m.CellTimings, func(i, j int) bool { return m.CellTimings[i].Index < m.CellTimings[j].Index })
	c0, c1 := m.CellTimings[0], m.CellTimings[1]
	if c0.Label != "loss_bad-0.5" || c0.Rows != 1 || c0.WallMs != 500 || c0.RowsPerSec != 2 {
		t.Errorf("cell 0 %+v", c0)
	}
	if c1.Label != "loss_bad-0.9" || c1.Rows != 3 || c1.WallMs != 1000 || c1.RowsPerSec != 3 {
		t.Errorf("cell 1 %+v", c1)
	}
}
