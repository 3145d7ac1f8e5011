package fleet

import (
	"errors"
	"fmt"
	"math"
	"time"

	"telepresence/internal/core"
	"telepresence/internal/scenario"
)

// Axis is one swept parameter: a name recognized by the sweep target and
// the grid values it takes.
type Axis struct {
	Name   string
	Values []float64
}

// SweepSpec is a cartesian parameter grid over one registered sweep target
// (core.SweepTarget): the grid is the cross product of the axes, enumerated
// row-major with the FIRST axis slowest. Parameters not covered by an axis
// hold the target's defaults.
type SweepSpec struct {
	// Target names the registered sweep target ("handover").
	Target string
	// Axes are the swept parameters; at least one is required.
	Axes []Axis
}

// Validate checks the spec against the registry: the target must exist,
// every axis must name one of its parameters exactly once, and every grid
// value must be a finite number.
func (s SweepSpec) Validate() error {
	t, ok := core.LookupSweep(s.Target)
	if !ok {
		return fmt.Errorf("fleet: unknown sweep target %q (try: list)", s.Target)
	}
	if len(s.Axes) == 0 {
		return fmt.Errorf("fleet: sweep %s: no axes", s.Target)
	}
	known := t.DefaultParams()
	seen := map[string]bool{}
	for _, a := range s.Axes {
		if _, ok := known[a.Name]; !ok {
			return fmt.Errorf("fleet: sweep %s: unknown parameter %q (have %v)",
				s.Target, a.Name, paramNames(t))
		}
		if seen[a.Name] {
			return fmt.Errorf("fleet: sweep %s: duplicate axis %q", s.Target, a.Name)
		}
		seen[a.Name] = true
		if len(a.Values) == 0 {
			return fmt.Errorf("fleet: sweep %s: axis %q has no values", s.Target, a.Name)
		}
		for _, v := range a.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("fleet: sweep %s: axis %q value %v is not finite", s.Target, a.Name, v)
			}
		}
	}
	return nil
}

func paramNames(t core.SweepTarget) []string {
	names := make([]string, len(t.Params))
	for i, p := range t.Params {
		names[i] = p.Name
	}
	return names
}

// SweepCell is one grid point: its enumeration index, its full parameter
// map (axis values over target defaults), and the canonical label the
// per-cell seed derives from. The label depends only on the parameter
// values, so reshaping or reordering a grid never changes a cell's rows.
type SweepCell struct {
	Index  int
	Params map[string]float64
	Label  string
}

// Cells enumerates the grid. The spec must have passed Validate.
func (s SweepSpec) Cells() []SweepCell {
	t, _ := core.LookupSweep(s.Target)
	n := 1
	for _, a := range s.Axes {
		n *= len(a.Values)
	}
	cells := make([]SweepCell, 0, n)
	idx := make([]int, len(s.Axes))
	for i := 0; i < n; i++ {
		params := t.DefaultParams()
		for ai, a := range s.Axes {
			params[a.Name] = a.Values[idx[ai]]
		}
		cells = append(cells, SweepCell{
			Index:  i,
			Params: params,
			Label:  scenario.ParamLabel(params),
		})
		// Row-major increment: last axis fastest.
		for ai := len(idx) - 1; ai >= 0; ai-- {
			idx[ai]++
			if idx[ai] < len(s.Axes[ai].Values) {
				break
			}
			idx[ai] = 0
		}
	}
	return cells
}

// SweepCellResult is one cell's merged outcome.
type SweepCellResult struct {
	Cell SweepCell
	// RowCount is the number of rows the cell emitted to the sink.
	RowCount int
	Wall     time.Duration
	// Attempts is how many tries the cell took (>1 when retries fired).
	Attempts int
	// Resumed reports the cell was served from the checkpoint journal.
	Resumed bool
	Err     error
	// Stack is the captured goroutine stack when the failure was a panic.
	Stack string
}

// sweepUnits flattens a validated spec's grid into scheduler units in grid
// order. Unit keys carry the target name and the cell's canonical
// parameter label — grid-shape-independent, like the cell seed itself.
func sweepUnits(spec SweepSpec, opts core.Options) ([]unit, []SweepCell) {
	target, _ := core.LookupSweep(spec.Target)
	cells := spec.Cells()
	units := make([]unit, len(cells))
	for i, cell := range cells {
		cell := cell
		units[i] = unit{
			key:    "sweep/" + spec.Target + "/" + cell.Label,
			labels: []string{"experiment", spec.Target, "cell", cell.Label},
			run:    func() ([]core.Row, error) { return target.Run(opts, cell.Params) },
		}
	}
	return units, cells
}

// RunSweepStream executes every cell of the grid, sharding cells across a
// worker pool of cfg.Workers goroutines, and streams each cell's rows to
// sink as soon as the cell and all earlier cells have resolved, so memory
// stays bounded by the reorder window (Config.Window) instead of the grid
// size. Per the CellRunner contract a cell's rows are a pure function of
// (opts, parameter values) — cell seeds derive from the run seed and the
// canonical parameter label, never from grid position — so the sink sees
// rows in grid order, byte-identical at any worker count. Results carry
// per-cell metadata (RowCount, Attempts, Resumed) in grid order. The sink
// is closed before returning.
//
// A failed cell leaves a gap in the stream exactly where its rows would
// be; an interrupted run (cfg.Interrupt) drains in-flight cells, journals
// them, and marks the rest with ErrInterrupted. With cfg.Checkpoint and
// cfg.Resume, journaled cells replay through the sink without running —
// the sink must implement EntrySink (NewJSONLSink and NewCSVSink do) —
// reassembling output byte-identical to an uninterrupted run.
func RunSweepStream(spec SweepSpec, opts core.Options, cfg Config, sink Sink) ([]SweepCellResult, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	units, cells := sweepUnits(spec, opts)

	results := make([]SweepCellResult, len(cells))
	for i := range results {
		// Pre-mark; emission overwrites. An emit abort leaves the
		// untouched tail marked resumable, which is what it is.
		results[i] = SweepCellResult{Cell: cells[i], Err: ErrInterrupted}
	}

	_, emitErr := runOrdered(units, opts.Fingerprint(), cfg, func(i int, o unitOutcome) error {
		res := SweepCellResult{
			Cell: cells[i], RowCount: o.rowCount(), Wall: o.wall,
			Attempts: o.attempts, Resumed: o.resumed, Err: o.err, Stack: o.stack,
		}
		if o.err != nil && !errors.Is(o.err, ErrInterrupted) {
			res.Err = fmt.Errorf("fleet: sweep %s cell %d (%s): %w", spec.Target, cells[i].Index, cells[i].Label, o.err)
		}
		results[i] = res
		if o.err != nil {
			return nil
		}
		if o.entry != nil {
			es, ok := sink.(EntrySink)
			if !ok {
				return fmt.Errorf("fleet: sink %T cannot replay journal entries (no EntrySink)", sink)
			}
			return es.WriteEntry(o.entry)
		}
		if err := cfg.Chaos.sinkFault(units[i].key); err != nil {
			return err
		}
		for _, row := range o.rows {
			if err := sink.Write(row); err != nil {
				return err
			}
		}
		return nil
	})
	closeErr := sink.Close()

	var joined []error
	for _, r := range results {
		if r.Err != nil {
			joined = append(joined, r.Err)
		}
	}
	if emitErr != nil {
		joined = append(joined, emitErr)
	}
	if closeErr != nil {
		joined = append(joined, closeErr)
	}
	return results, errors.Join(joined...)
}

// SweepAxisManifest records one swept axis in a sweep manifest.
type SweepAxisManifest struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
}

// SweepCellManifest records one cell's timing inside a sweep manifest.
type SweepCellManifest struct {
	Index      int     `json:"index"`
	Label      string  `json:"label"`
	Rows       int     `json:"rows"`
	WallMs     float64 `json:"wall_ms"`
	RowsPerSec float64 `json:"rows_per_sec"`
	// Attempts is how many tries the cell took; omitted (0) for cells
	// served from the journal without a recorded attempt count.
	Attempts int `json:"attempts,omitempty"`
	// Resumed marks cells replayed from the checkpoint journal.
	Resumed bool `json:"resumed,omitempty"`
	// Skipped marks cells an interrupted run never completed; a resumed
	// run fills them in.
	Skipped bool `json:"skipped,omitempty"`
}

// SweepManifest is the provenance record of a sweep run.
type SweepManifest struct {
	Format             string              `json:"format"`
	Target             string              `json:"target"`
	Seed               int64               `json:"seed"`
	SessionDurationSec float64             `json:"session_duration_sec"`
	Workers            int                 `json:"workers"`
	WallMs             float64             `json:"wall_ms"`
	Axes               []SweepAxisManifest `json:"axes"`
	Cells              int                 `json:"cells"`
	Rows               int                 `json:"rows"`
	// RowsPerSec is total rows over the run's elapsed wall time;
	// CellTimings breaks the work down per grid point (cumulative cell
	// wall time — parallel cells overlap).
	RowsPerSec  float64             `json:"rows_per_sec"`
	CellTimings []SweepCellManifest `json:"cell_timings"`
	File        string              `json:"file,omitempty"`
	// Failures details every failed cell: error, captured panic stack,
	// attempt count. Interrupted (skipped) cells are not failures.
	Failures []UnitFailure `json:"failures,omitempty"`
	// Interrupted marks a run that drained early (signal or abort); its
	// journal, if any, makes it resumable.
	Interrupted bool `json:"interrupted,omitempty"`
	// Resumed counts cells served from the checkpoint journal.
	Resumed int `json:"resumed,omitempty"`
	// Checkpoint is the journal directory the run wrote, when one was set.
	Checkpoint string   `json:"checkpoint,omitempty"`
	Errors     []string `json:"errors,omitempty"`
	// HotSites ranks the sweep's busiest scheduling sites when it profiled
	// (Options.ProfDir): merged deterministic event counts, plus wall CPU.
	// Set by the caller from MergeProfiles after the sweep completes.
	HotSites []HotSite `json:"hot_sites,omitempty"`
}

// SweepManifestFormat identifies the sweep manifest schema version. /2
// added the run-level rows_per_sec and the per-cell timing breakdown; /3
// added the failures section and the interrupted/resumed/checkpoint
// resume fields.
const SweepManifestFormat = "telepresence-sweep/3"

// NewSweepManifest builds the provenance record for a completed sweep.
func NewSweepManifest(spec SweepSpec, opts core.Options, workers int, wall time.Duration, results []SweepCellResult) SweepManifest {
	n, normErr := opts.Normalize()
	if normErr == nil {
		opts = n
	}
	m := SweepManifest{
		Format:             SweepManifestFormat,
		Target:             spec.Target,
		Seed:               opts.Seed,
		SessionDurationSec: opts.SessionDuration.Seconds(),
		Workers:            workers,
		WallMs:             float64(wall) / float64(time.Millisecond),
		Cells:              len(results),
	}
	if normErr != nil {
		// Invalid options used to be silently masked here; record them so
		// the manifest never misdescribes the run it documents.
		m.Errors = append(m.Errors, fmt.Sprintf("options: %v", normErr))
	}
	for _, a := range spec.Axes {
		m.Axes = append(m.Axes, SweepAxisManifest{Name: a.Name, Values: a.Values})
	}
	for _, r := range results {
		cm := SweepCellManifest{
			Index:      r.Cell.Index,
			Label:      r.Cell.Label,
			Rows:       r.RowCount,
			WallMs:     float64(r.Wall) / float64(time.Millisecond),
			RowsPerSec: rowsPerSec(r.RowCount, r.Wall),
			Attempts:   r.Attempts,
			Resumed:    r.Resumed,
		}
		if r.Resumed {
			m.Resumed++
		}
		if r.Err != nil {
			if errors.Is(r.Err, ErrInterrupted) {
				m.Interrupted = true
				cm.Skipped = true
			} else {
				m.Failures = append(m.Failures, UnitFailure{
					Unit:     "sweep/" + spec.Target + "/" + r.Cell.Label,
					Error:    r.Err.Error(),
					Stack:    r.Stack,
					Attempts: r.Attempts,
				})
			}
			m.Errors = append(m.Errors, r.Err.Error())
		}
		m.Rows += r.RowCount
		m.CellTimings = append(m.CellTimings, cm)
	}
	m.RowsPerSec = rowsPerSec(m.Rows, wall)
	return m
}
