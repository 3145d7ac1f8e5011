package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"telepresence/internal/core"
	"telepresence/internal/simtime"
)

// Sink consumes one experiment's merged rows. Implementations are not
// safe for concurrent use; the fleet writes to each sink from one
// goroutine, in deterministic row order.
type Sink interface {
	Write(row core.Row) error
	Close() error
}

// SinkFactory opens a sink for one experiment (e.g. a per-experiment
// output file).
type SinkFactory func(e core.Experiment) (Sink, error)

// EntrySink is implemented by sinks that can replay a checkpointed
// journal entry's pre-encoded rows byte-identically to live writes.
// Resuming a run (Config.Resume) requires the sink to implement it;
// NewJSONLSink and NewCSVSink both do.
type EntrySink interface {
	Sink
	WriteEntry(e *JournalEntry) error
}

// ------------------------------------------------------------------ JSONL

type jsonlSink struct {
	w   io.Writer
	enc *json.Encoder
}

// NewJSONLSink writes one JSON object per row to w. Encoding is
// deterministic: struct fields serialize in declaration order and samples
// serialize as their descriptive summary.
func NewJSONLSink(w io.Writer) Sink {
	return jsonlSink{w: w, enc: json.NewEncoder(w)}
}

func (s jsonlSink) Write(row core.Row) error { return s.enc.Encode(row) }
func (s jsonlSink) Close() error             { return nil }

// WriteEntry replays a journal entry's pre-encoded JSONL lines. The
// stored lines are json.Marshal output, which matches json.Encoder's
// encoding exactly, so a resumed file is byte-identical to a live one.
func (s jsonlSink) WriteEntry(e *JournalEntry) error {
	for _, line := range e.JSONL {
		if _, err := s.w.Write(line); err != nil {
			return err
		}
		if _, err := s.w.Write([]byte{'\n'}); err != nil {
			return err
		}
	}
	return nil
}

// ----------------------------------------------------------------- Memory

// MemorySink accumulates typed rows in memory, for tests and programmatic
// use. It is not an EntrySink: a resumed run cannot replay journaled
// (pre-encoded) rows into it and fails at the first journaled unit.
type MemorySink struct{ Rows []core.Row }

// NewMemorySink returns an empty in-memory sink.
func NewMemorySink() *MemorySink { return &MemorySink{} }

func (s *MemorySink) Write(row core.Row) error { s.Rows = append(s.Rows, row); return nil }

// Close is a no-op; rows stay readable after closing.
func (s *MemorySink) Close() error { return nil }

// --------------------------------------------------------------- Manifest

// ExperimentManifest summarizes one experiment inside a run manifest.
type ExperimentManifest struct {
	Name   string  `json:"name"`
	Reps   int     `json:"reps"`
	Rows   int     `json:"rows"`
	WallMs float64 `json:"wall_ms"`
	// RowsPerSec is rows over the experiment's cumulative rep wall time —
	// a per-experiment throughput figure (parallel reps overlap, so the
	// run-level rate can exceed the per-experiment ones summed).
	RowsPerSec float64 `json:"rows_per_sec"`
	File       string  `json:"file,omitempty"`
	// Attempts is the total attempt count across reps (> Reps when
	// retries fired).
	Attempts int `json:"attempts,omitempty"`
	// Resumed counts reps served from the checkpoint journal.
	Resumed int `json:"resumed,omitempty"`
	// Skipped marks experiments an interrupted run never completed; a
	// resumed run fills them in.
	Skipped bool   `json:"skipped,omitempty"`
	Error   string `json:"error,omitempty"`
}

// rowsPerSec computes a rows-per-second rate, 0 when the interval is
// degenerate (zero wall time or no rows).
func rowsPerSec(rows int, wall time.Duration) float64 {
	if rows <= 0 || wall <= 0 {
		return 0
	}
	return float64(rows) / wall.Seconds()
}

// Manifest records what a fleet run did: the options that parameterized
// it, the worker count, wall time, and per-experiment row counts. It is
// the run's provenance document; rows themselves go to sinks.
type Manifest struct {
	Format             string  `json:"format"`
	Seed               int64   `json:"seed"`
	SessionDurationSec float64 `json:"session_duration_sec"`
	OptionReps         int     `json:"option_reps"`
	Workers            int     `json:"workers"`
	WallMs             float64 `json:"wall_ms"`
	// Rows is the total row count across all successful experiments;
	// RowsPerSec is that total over the run's elapsed wall time (the
	// fleet-throughput number BENCH_fleet.json tracks).
	Rows        int                  `json:"rows"`
	RowsPerSec  float64              `json:"rows_per_sec"`
	Experiments []ExperimentManifest `json:"experiments"`
	// Failures details every failed rep: error, captured panic stack,
	// attempt count. Interrupted (skipped) reps are not failures.
	Failures []UnitFailure `json:"failures,omitempty"`
	// Interrupted marks a run that drained early (signal or abort); its
	// journal, if any, makes it resumable.
	Interrupted bool `json:"interrupted,omitempty"`
	// Resumed counts reps served from the checkpoint journal.
	Resumed int `json:"resumed,omitempty"`
	// Checkpoint is the journal directory the run wrote, when one was set.
	Checkpoint string   `json:"checkpoint,omitempty"`
	Errors     []string `json:"errors,omitempty"`
	// HotSites ranks the run's busiest scheduling sites when it profiled
	// (Options.ProfDir): merged deterministic event counts, plus wall CPU.
	// Set by the caller from MergeProfiles after the run completes.
	HotSites []HotSite `json:"hot_sites,omitempty"`
}

// ManifestFormat identifies the manifest schema version. /2 added the
// run-level rows/rows_per_sec totals and per-experiment rows_per_sec; /3
// added the failures section and the interrupted/resumed/checkpoint
// resume fields.
const ManifestFormat = "telepresence-fleet/3"

// NewManifest builds the provenance record for a completed run.
func NewManifest(opts core.Options, workers int, wall time.Duration, results []ExperimentResult) Manifest {
	n, normErr := opts.Normalize()
	if normErr == nil {
		opts = n
	}
	m := Manifest{
		Format:             ManifestFormat,
		Seed:               opts.Seed,
		SessionDurationSec: float64(opts.SessionDuration) / float64(simtime.Second),
		OptionReps:         opts.Reps,
		Workers:            workers,
		WallMs:             float64(wall) / float64(time.Millisecond),
	}
	if normErr != nil {
		// Invalid options used to be silently masked here; record them so
		// the manifest never misdescribes the run it documents.
		m.Errors = append(m.Errors, fmt.Sprintf("options: %v", normErr))
	}
	for _, res := range results {
		em := ExperimentManifest{
			Name:       res.Experiment.Name,
			Reps:       res.Reps,
			Rows:       res.RowCount,
			WallMs:     float64(res.Wall) / float64(time.Millisecond),
			RowsPerSec: rowsPerSec(res.RowCount, res.Wall),
			Attempts:   res.Attempts,
			Resumed:    res.Resumed,
		}
		m.Resumed += res.Resumed
		m.Failures = append(m.Failures, res.Failures...)
		if res.Err != nil {
			em.Error = res.Err.Error()
			if errors.Is(res.Err, ErrInterrupted) {
				m.Interrupted = true
				em.Skipped = true
			}
		}
		m.Rows += res.RowCount
		m.Experiments = append(m.Experiments, em)
	}
	m.RowsPerSec = rowsPerSec(m.Rows, wall)
	return m
}
