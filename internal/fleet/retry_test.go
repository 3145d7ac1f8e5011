package fleet

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"telepresence/internal/core"
)

// flakyExperiment fails (or panics) the first failPer attempts of every
// rep, then succeeds with rows that depend only on the rep — the purity
// contract that makes retried output byte-identical. Counters are atomic:
// a watchdog-abandoned attempt may still be running when its retry starts.
func flakyExperiment(name string, reps, failPer int, doPanic bool) (core.Experiment, *sync.Map) {
	var attempts sync.Map // rep -> *atomic.Int64
	exp := core.Experiment{
		Name: name, Desc: "test", Row: 0,
		Reps: func(core.Options) int { return reps },
		Run: func(_ core.Options, rep int) ([]core.Row, error) {
			v, _ := attempts.LoadOrStore(rep, new(atomic.Int64))
			if v.(*atomic.Int64).Add(1) <= int64(failPer) {
				if doPanic {
					panic("synthetic rep panic")
				}
				return nil, errors.New("synthetic rep failure")
			}
			return []core.Row{rep * 10, rep*10 + 1}, nil
		},
	}
	return exp, &attempts
}

// TestPanicIsolation: a panicking rep must not kill the process or its
// sibling experiments — it becomes that experiment's error, with the
// panic stack captured for the manifest.
func TestPanicIsolation(t *testing.T) {
	boom, _ := flakyExperiment("boom", 2, 99, true)
	good, _ := flakyExperiment("good", 2, 0, false)
	res, sinks, err := streamMem([]core.Experiment{boom, good}, core.Quick(1), Config{Workers: 4})
	if err == nil {
		t.Fatal("panicking experiment produced no error")
	}
	if res[0].Err == nil || !strings.Contains(res[0].Err.Error(), "panic: synthetic rep panic") {
		t.Errorf("panic not converted to error: %v", res[0].Err)
	}
	if len(res[0].Failures) != 2 {
		t.Fatalf("%d failures recorded, want 2 (one per rep)", len(res[0].Failures))
	}
	f := res[0].Failures[0]
	if f.Stack == "" || !strings.Contains(f.Stack, "goroutine") {
		t.Errorf("panic stack not captured: %q", f.Stack)
	}
	if f.Unit != "run/boom/rep0" && f.Unit != "run/boom/rep1" {
		t.Errorf("failure unit key %q", f.Unit)
	}
	if res[1].Err != nil || len(sinks["good"].Rows) != 4 {
		t.Errorf("sibling experiment harmed: err=%v rows=%d", res[1].Err, len(sinks["good"].Rows))
	}
	if _, ok := sinks["boom"]; ok {
		t.Error("failed experiment opened a sink")
	}
}

// TestRetryDeterminism is the acceptance pin: a runner failing its first
// N-1 attempts under RetryPolicy{MaxAttempts: N} must yield rows
// byte-identical to a never-failing runner.
func TestRetryDeterminism(t *testing.T) {
	const n = 3
	flaky, _ := flakyExperiment("flaky", 4, n-1, false)
	clean, _ := flakyExperiment("flaky", 4, 0, false) // same name: same unit keys
	opts := core.Quick(1)

	want, _, err := streamJSONL([]core.Experiment{clean}, opts, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	gotJSONL, got, err := streamJSONL([]core.Experiment{flaky}, opts, Config{Workers: 4, Retry: RetryPolicy{MaxAttempts: n}})
	if err != nil {
		t.Fatalf("retries did not converge: %v", err)
	}
	w, g := want["flaky"], gotJSONL["flaky"]
	if len(w) == 0 || string(w) != string(g) {
		t.Errorf("retried rows diverge from clean rows\nclean: %s\nretry: %s", w, g)
	}
	if got[0].Attempts != 4*n {
		t.Errorf("attempts = %d, want %d (every rep retried %d times)", got[0].Attempts, 4*n, n)
	}
	// Same runner with one attempt fewer must fail instead of converging.
	flaky2, _ := flakyExperiment("flaky", 4, n-1, false)
	if _, _, err := streamMem([]core.Experiment{flaky2}, opts, Config{Workers: 4, Retry: RetryPolicy{MaxAttempts: n - 1}}); err == nil {
		t.Error("under-budgeted retry succeeded")
	}
}

// TestWatchdogTimeout: a hung attempt is abandoned on PerCellTimeout and
// either retried (converging when a later attempt is fast) or surfaced as
// ErrUnitTimeout when the budget is exhausted.
func TestWatchdogTimeout(t *testing.T) {
	var attempts sync.Map
	hangFirst := core.Experiment{
		Name: "hang", Desc: "test", Row: 0,
		Reps: func(core.Options) int { return 1 },
		Run: func(_ core.Options, rep int) ([]core.Row, error) {
			v, _ := attempts.LoadOrStore(rep, new(atomic.Int64))
			if v.(*atomic.Int64).Add(1) == 1 {
				time.Sleep(10 * time.Second) // hung; watchdog abandons it
			}
			return []core.Row{42}, nil
		},
	}
	cfg := Config{Workers: 1, Retry: RetryPolicy{MaxAttempts: 2, PerCellTimeout: 50 * time.Millisecond}}
	res, sinks, err := streamMem([]core.Experiment{hangFirst}, core.Quick(1), cfg)
	if err != nil {
		t.Fatalf("watchdog retry did not converge: %v", err)
	}
	if len(sinks["hang"].Rows) != 1 || res[0].Attempts != 2 {
		t.Errorf("rows=%d attempts=%d, want 1 row in 2 attempts", len(sinks["hang"].Rows), res[0].Attempts)
	}

	alwaysHang := core.Experiment{
		Name: "hang2", Desc: "test", Row: 0,
		Reps: func(core.Options) int { return 1 },
		Run: func(core.Options, int) ([]core.Row, error) {
			time.Sleep(10 * time.Second)
			return []core.Row{0}, nil
		},
	}
	cfg = Config{Workers: 1, Retry: RetryPolicy{MaxAttempts: 1, PerCellTimeout: 50 * time.Millisecond}}
	_, _, err = streamMem([]core.Experiment{alwaysHang}, core.Quick(1), cfg)
	if !errors.Is(err, ErrUnitTimeout) {
		t.Errorf("hung unit error = %v, want ErrUnitTimeout", err)
	}
}

// TestBackoffSchedule pins the doubling schedule.
func TestBackoffSchedule(t *testing.T) {
	p := RetryPolicy{Backoff: 10 * time.Millisecond}
	for _, tc := range []struct {
		attempt int
		want    time.Duration
	}{{1, 0}, {2, 10 * time.Millisecond}, {3, 20 * time.Millisecond}, {4, 40 * time.Millisecond}} {
		if got := p.backoffBefore(tc.attempt); got != tc.want {
			t.Errorf("backoffBefore(%d) = %v, want %v", tc.attempt, got, tc.want)
		}
	}
	if got := (RetryPolicy{}).backoffBefore(5); got != 0 {
		t.Errorf("zero policy backoff = %v, want 0", got)
	}
}

// TestResumeRequiresEntrySink: journaled rows are pre-encoded bytes, so a
// resumed run cannot replay them into a typed-row MemorySink. With one
// journaled unit, both streaming entry points must fail with the engine's
// "no EntrySink" error and emit no rows for that unit.
func TestResumeRequiresEntrySink(t *testing.T) {
	const want = "cannot replay journal entries (no EntrySink)"
	opts := core.Quick(1)

	j, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	exp, _ := flakyExperiment("journaled", 1, 0, false)
	if _, _, err := streamJSONL([]core.Experiment{exp}, opts, Config{Checkpoint: j}); err != nil {
		t.Fatal(err)
	}
	res, sinks, err := streamMem([]core.Experiment{exp}, opts, Config{Checkpoint: j, Resume: true})
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("RunStream resume into MemorySink: %v, want %q", err, want)
	}
	if n := len(sinks["journaled"].Rows); n != 0 || res[0].RowCount != 0 {
		t.Errorf("RunStream emitted %d rows (RowCount %d) for the journaled rep, want 0", n, res[0].RowCount)
	}

	sj, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := SweepSpec{Target: "synth-sweep", Axes: []Axis{{Name: "a", Values: []float64{1}}}}
	if _, _, err := streamSweepJSONL(t, spec, opts, Config{Checkpoint: sj}); err != nil {
		t.Fatal(err)
	}
	sink := NewMemorySink()
	cells, err := RunSweepStream(spec, opts, Config{Checkpoint: sj, Resume: true}, sink)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("RunSweepStream resume into MemorySink: %v, want %q", err, want)
	}
	if len(sink.Rows) != 0 {
		t.Errorf("RunSweepStream emitted %d rows for the journaled cell, want 0", len(sink.Rows))
	}
	if !cells[0].Resumed {
		t.Error("journaled cell not served from the journal")
	}
}

// TestSweepPanicIsolated: the sweep path shares the same isolation (panic
// stack lands in the cell result and the manifest failures section).
func TestSweepPanicIsolated(t *testing.T) {
	spec := SweepSpec{Target: "synth-sweep", Axes: []Axis{
		{Name: "a", Values: []float64{-2, 1}}}}
	sink := NewMemorySink()
	results, err := RunSweepStream(spec, core.Quick(1), Config{Workers: 2}, sink)
	if err == nil {
		t.Fatal("panicking cell produced no error")
	}
	if results[0].Err == nil || !strings.Contains(results[0].Err.Error(), "panic: synthetic panic") {
		t.Errorf("cell 0: %v, want recovered panic", results[0].Err)
	}
	if results[0].Stack == "" {
		t.Error("panic stack not captured on cell result")
	}
	if results[1].Err != nil || results[1].RowCount != 1 || len(sink.Rows) != 1 {
		t.Errorf("surviving cell harmed: %v", results[1].Err)
	}
	m := NewSweepManifest(spec, core.Quick(1), 2, time.Millisecond, results)
	if len(m.Failures) != 1 || m.Failures[0].Stack == "" || m.Failures[0].Attempts != 1 {
		t.Errorf("manifest failures = %+v", m.Failures)
	}
}
