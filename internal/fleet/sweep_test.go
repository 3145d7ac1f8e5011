package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"telepresence/internal/core"
)

// init registers a throwaway sweep target whose rows echo the cell
// parameters and the derived seed, proving sharding and seed derivation
// without the cost of real sessions.
func init() {
	core.RegisterSweep(core.SweepTarget{
		Name: "synth-sweep", Desc: "test target",
		Row: map[string]float64{},
		Params: []core.SweepParam{
			{Name: "a", Default: 1},
			{Name: "b", Default: 2},
			{Name: "c", Default: 30},
		},
		Run: func(opts core.Options, params map[string]float64) ([]core.Row, error) {
			cell := core.SweepCellOptions(opts, "synth-sweep", params)
			row := map[string]float64{
				"a": params["a"], "b": params["b"], "c": params["c"],
				"seed": float64(cell.Seed % 1e6),
			}
			if params["a"] == -2 {
				panic("synthetic panic")
			}
			if params["a"] < 0 {
				return nil, fmt.Errorf("synthetic failure")
			}
			return []core.Row{row}, nil
		},
	})
}

func TestSweepSpecValidate(t *testing.T) {
	ok := SweepSpec{Target: "synth-sweep", Axes: []Axis{{Name: "a", Values: []float64{1, 2}}}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []SweepSpec{
		{Target: "nope", Axes: []Axis{{Name: "a", Values: []float64{1}}}},
		{Target: "synth-sweep"},
		{Target: "synth-sweep", Axes: []Axis{{Name: "zz", Values: []float64{1}}}},
		{Target: "synth-sweep", Axes: []Axis{{Name: "a", Values: nil}}},
		{Target: "synth-sweep", Axes: []Axis{
			{Name: "a", Values: []float64{1}}, {Name: "a", Values: []float64{2}}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
		if _, err := RunSweepStream(s, core.Quick(1), Config{}, NewMemorySink()); err == nil {
			t.Errorf("RunSweepStream accepted bad spec %d", i)
		}
	}
}

func TestSweepCellsEnumeration(t *testing.T) {
	spec := SweepSpec{Target: "synth-sweep", Axes: []Axis{
		{Name: "a", Values: []float64{1, 2}},
		{Name: "b", Values: []float64{10, 20, 30}},
	}}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	cells := spec.Cells()
	if len(cells) != 6 {
		t.Fatalf("%d cells, want 6", len(cells))
	}
	// Row-major: first axis slowest, defaults filled for c.
	want := []struct{ a, b float64 }{{1, 10}, {1, 20}, {1, 30}, {2, 10}, {2, 20}, {2, 30}}
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %d has Index %d", i, c.Index)
		}
		if c.Params["a"] != want[i].a || c.Params["b"] != want[i].b {
			t.Errorf("cell %d params %v, want a=%v b=%v", i, c.Params, want[i].a, want[i].b)
		}
		if c.Params["c"] != 30 {
			t.Errorf("cell %d missing default c=30: %v", i, c.Params)
		}
		if c.Label != fmt.Sprintf("a=%g,b=%g,c=30", want[i].a, want[i].b) {
			t.Errorf("cell %d label %q", i, c.Label)
		}
	}
}

// sweepMem runs the sweep through RunSweepStream into one MemorySink, for
// tests that inspect typed rows (one per synth-sweep cell, in grid order).
func sweepMem(spec SweepSpec, opts core.Options, cfg Config) ([]SweepCellResult, []core.Row, error) {
	sink := NewMemorySink()
	results, err := RunSweepStream(spec, opts, cfg, sink)
	return results, sink.Rows, err
}

// TestSweepDeterminismAcrossWorkers: the 12-cell grid streams the same
// bytes at 1, 4 and 8 workers, one row per cell.
func TestSweepDeterminismAcrossWorkers(t *testing.T) {
	spec := testSweepSpec()
	opts := core.Quick(7)
	want, seq, err := streamSweepJSONL(t, spec, opts, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 12 || bytes.Count(want, []byte("\n")) != 12 {
		t.Fatalf("%d results, %d rows; want 12 of each", len(seq), bytes.Count(want, []byte("\n")))
	}
	for _, workers := range []int{4, 8} {
		got, results, err := streamSweepJSONL(t, spec, opts, Config{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("workers=1 and workers=%d sweep output differ\nseq: %s\npar: %s", workers, want, got)
		}
		for _, r := range results {
			if r.RowCount != 1 {
				t.Fatalf("workers=%d cell %d: RowCount=%d, want 1", workers, r.Cell.Index, r.RowCount)
			}
		}
	}
}

func TestSweepSeedsDependOnValuesNotPosition(t *testing.T) {
	// The same parameter values must yield the same rows in any grid shape.
	wide := SweepSpec{Target: "synth-sweep", Axes: []Axis{
		{Name: "a", Values: []float64{1, 2, 3, 4}}}}
	narrow := SweepSpec{Target: "synth-sweep", Axes: []Axis{
		{Name: "a", Values: []float64{3}}}}
	opts := core.Quick(5)
	_, rw, err := sweepMem(wide, opts, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, rn, err := sweepMem(narrow, opts, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantRow := rw[2].(map[string]float64) // a=3 at index 2
	gotRow := rn[0].(map[string]float64)  // a=3 at index 0
	if wantRow["seed"] != gotRow["seed"] || wantRow["a"] != gotRow["a"] {
		t.Errorf("cell a=3 differs by grid position: %v vs %v", wantRow, gotRow)
	}
	// Different values get different seeds.
	if s0, s1 := rw[0].(map[string]float64)["seed"], rw[1].(map[string]float64)["seed"]; s0 == s1 {
		t.Errorf("distinct cells share a derived seed: %v", s0)
	}
}

func TestSweepCellFailureIsolated(t *testing.T) {
	spec := SweepSpec{Target: "synth-sweep", Axes: []Axis{
		{Name: "a", Values: []float64{-1, 1}}}}
	out, results, err := streamSweepJSONL(t, spec, core.Quick(1), Config{Workers: 2})
	if err == nil {
		t.Fatal("failing cell produced no error")
	}
	if results[0].Err == nil || results[1].Err != nil {
		t.Errorf("failure not isolated to cell 0: %v / %v", results[0].Err, results[1].Err)
	}
	if results[1].RowCount != 1 {
		t.Errorf("surviving cell lost its rows")
	}
	if n := bytes.Count(out, []byte("\n")); n != 1 {
		t.Errorf("sink saw %d rows, want 1 (failed cell skipped)", n)
	}
}

func TestSweepManifest(t *testing.T) {
	spec := SweepSpec{Target: "synth-sweep", Axes: []Axis{
		{Name: "a", Values: []float64{1, 2}}}}
	opts := core.Quick(9)
	results, _, err := sweepMem(spec, opts, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	m := NewSweepManifest(spec, opts, 2, 0, results)
	if m.Format != SweepManifestFormat || m.Target != "synth-sweep" ||
		m.Seed != 9 || m.Cells != 2 || m.Rows != 2 || len(m.Axes) != 1 {
		t.Errorf("manifest wrong: %+v", m)
	}
	if _, err := json.Marshal(m); err != nil {
		t.Errorf("manifest not serializable: %v", err)
	}
}

// TestSweepTargetsRegistered pins the three scenario sweep targets the CLI
// documents.
func TestSweepTargetsRegistered(t *testing.T) {
	for _, name := range []string{"handover", "burstloss", "congestion"} {
		tgt, ok := core.LookupSweep(name)
		if !ok {
			t.Errorf("sweep target %q not registered", name)
			continue
		}
		if len(tgt.Params) == 0 || tgt.Row == nil {
			t.Errorf("sweep target %q incomplete: %+v", name, tgt)
		}
	}
}

// TestScenarioSweepMatchesExperiment proves the dual registration: a sweep
// cell at the registry experiment's grid value produces the experiment's
// row byte-for-byte (shared seed derivation from parameter values).
func TestScenarioSweepMatchesExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real session")
	}
	opts := testOpts(1)
	spec := SweepSpec{Target: "handover", Axes: []Axis{
		{Name: "delay_ms", Values: []float64{core.DefaultHandoverDelaysMs()[0]}}}}
	_, sweep, err := sweepMem(spec, opts, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	exp, _ := core.Lookup("handover")
	rows, err := exp.Run(opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(sweep[0])
	b, _ := json.Marshal(rows[0])
	if !bytes.Equal(a, b) {
		t.Errorf("sweep cell and experiment rep diverge:\nsweep: %s\nexp:   %s", a, b)
	}
}

// TestCCRateSweepDeterminism pins the closed-loop experiments' worker
// invariance on a real grid: two ccrate cells (open-loop vs delay-gradient
// at the same cap) must emit byte-identical rows at any worker count. The
// full-suite TestDeterminismAcrossWorkers covers the complete ccrate and
// ccramp grids in non-short runs; this small grid keeps the guarantee
// exercised in -short CI too.
func TestCCRateSweepDeterminism(t *testing.T) {
	spec := SweepSpec{Target: "ccrate", Axes: []Axis{
		{Name: "controller", Values: []float64{0, 2}},
		{Name: "cap_mbps", Values: []float64{0.9}},
	}}
	opts := core.Quick(3)
	_, seq, err := sweepMem(spec, opts, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, par, err := sweepMem(spec, opts, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	w, _ := json.Marshal(seq)
	g, _ := json.Marshal(par)
	if len(seq) != 2 || !bytes.Equal(w, g) {
		t.Fatalf("workers=1 and workers=2 ccrate sweep output differ\nseq: %s\npar: %s", w, g)
	}
	// The two controllers must actually diverge (the loop is closed).
	open := seq[0].(core.CCRateRow)
	gcc := seq[1].(core.CCRateRow)
	if open.Controller != "fixed" || gcc.Controller != "gcc" {
		t.Fatalf("controller labels wrong: %q, %q", open.Controller, gcc.Controller)
	}
	if gcc.UnavailableFrac >= open.UnavailableFrac {
		t.Errorf("closed loop (%.3f) not more available than open loop (%.3f) under the same cap",
			gcc.UnavailableFrac, open.UnavailableFrac)
	}
}
