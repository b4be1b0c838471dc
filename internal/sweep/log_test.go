package sweep

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

// A fresh (non-resume) Run over an existing log starts the log over:
// only this run's records remain, not the earlier run's.
func TestFreshRunTruncatesExistingLog(t *testing.T) {
	spec := testSpec()
	log := filepath.Join(t.TempDir(), "sweep.jsonl")
	stale := validLine("stale-cell", 99) + "\n" + validLine("other-stale-cell", 98) + "\n"
	if err := os.WriteFile(log, []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := Run(context.Background(), spec, Options{Run: fakeRun, Out: log})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := Load(log)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != out.Total {
		t.Fatalf("log holds %d records, want this run's %d", len(recs), out.Total)
	}
	for _, r := range recs {
		if r.Key == "stale-cell" || r.Key == "other-stale-cell" {
			t.Fatalf("fresh run kept the earlier run's record %q", r.Key)
		}
	}
}

// Load insists the log exists; Resume treats a missing log as empty
// and runs the whole grid, creating the log as it goes.
func TestMissingLogLoadVersusResume(t *testing.T) {
	log := filepath.Join(t.TempDir(), "absent.jsonl")
	if _, err := Load(log); !os.IsNotExist(err) {
		t.Fatalf("Load(missing) error = %v, want not-exist", err)
	}
	out, err := Resume(context.Background(), log, testSpec(), Options{Run: fakeRun})
	if err != nil {
		t.Fatalf("Resume(missing): %v", err)
	}
	if out.Skipped != 0 || !out.Complete() {
		t.Fatalf("Resume(missing): skipped=%d complete=%t, want a full fresh run", out.Skipped, out.Complete())
	}
	recs, err := Load(log)
	if err != nil || len(recs) != out.Total {
		t.Fatalf("log after Resume(missing) = %d records, %v; want %d", len(recs), err, out.Total)
	}
}

func TestLiteralRetries(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, NoRetries},  // literal 0: the user said zero retries
		{-1, NoRetries}, // negative is already "none"
		{1, 1},          // positive passes through
		{5, 5},          //
		{NoRetries, NoRetries},
	}
	for _, c := range cases {
		if got := LiteralRetries(c.in); got != c.want {
			t.Errorf("LiteralRetries(%d) = %d, want %d", c.in, got, c.want)
		}
	}
	// The Options zero value must keep meaning DefaultRetries so
	// zero-struct callers keep the old behavior.
	o := Options{}.withDefaults()
	if o.Retries != DefaultRetries {
		t.Errorf("zero Options retries = %d, want DefaultRetries (%d)", o.Retries, DefaultRetries)
	}
	// And the mapped "literal 0" must come through as none (normalized
	// to an internal 0 — zero re-executions), not as the default.
	o = Options{Retries: LiteralRetries(0)}.withDefaults()
	if o.Retries != 0 {
		t.Errorf("literal-0 retries normalized to %d, want 0", o.Retries)
	}
}
