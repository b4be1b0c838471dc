package sweep

import (
	"encoding/json"
	"fmt"
	"os"

	"parastack/internal/experiment"
	"parastack/internal/results"
)

// SchemaVersion tags every results-log record; Load rejects logs
// written by an incompatible schema. The record format is one JSON
// object per line (see Record and the EXPERIMENTS.md "Sweep results
// log" entry for the field-by-field schema).
const SchemaVersion = "parastack-sweep/v1"

// Terminal record statuses.
const (
	// StatusOK marks a run that completed (its Result field is set).
	StatusOK = "ok"
	// StatusFailed marks a run that panicked on every attempt; Error
	// holds the last panic message. Failed cells are terminal: resume
	// does not re-execute them (runs are deterministic, so they would
	// fail again).
	StatusFailed = "failed"
)

// Record is one line of the results log: the terminal outcome of one
// cell. A sweep appends exactly one record per executed cell; on
// resume, the last record for a key wins.
type Record struct {
	// Schema is SchemaVersion.
	Schema string `json:"schema"`
	// Key is the cell's stable identity (Cell.Key, or the campaign
	// fingerprint key for orchestrated campaigns).
	Key string `json:"key"`
	// Index is the cell's position in the expansion order; results are
	// re-assembled in index order so aggregation is order-stable.
	Index int `json:"index"`
	// Status is StatusOK or StatusFailed.
	Status string `json:"status"`
	// Attempts is how many executions the cell took (retries included).
	Attempts int `json:"attempts"`
	// Error is the last panic message of a failed cell.
	Error string `json:"error,omitempty"`
	// Result is the run's full outcome (StatusOK only).
	Result *experiment.RunResult `json:"result,omitempty"`
}

// logSyncEvery is the fsync batch size of the JSONL log a sweep writes
// at Options.Out: records reach disk at least every 16 appends and on
// Close, bounding both the syscall rate and what a crash can lose.
const logSyncEvery = 16

// Load reads every record of a results log. A torn final line (no
// trailing newline — the signature of a hard kill mid-write) is
// dropped; any other malformed or schema-mismatched line is an error,
// so silent corruption cannot masquerade as completed work. A missing
// file is an error too (Resume treats it as an empty log).
func Load(path string) ([]Record, error) {
	if _, err := os.Stat(path); err != nil {
		return nil, err
	}
	lines, err := results.ReadJSONL(path)
	if err != nil {
		return nil, err
	}
	return decodeRecords(path, lines)
}

// decodeRecords decodes and schema-checks raw payloads — a log's
// non-empty lines or a sink's records — so every resume source applies
// the same rules. Errors name src and the 1-based record number.
func decodeRecords(src string, raw []results.Record) ([]Record, error) {
	out := make([]Record, 0, len(raw))
	for i, rr := range raw {
		var rec Record
		if err := json.Unmarshal(rr.Payload, &rec); err != nil {
			return nil, fmt.Errorf("sweep: %s record %d: %w", src, i+1, err)
		}
		if rec.Schema != SchemaVersion {
			return nil, fmt.Errorf("sweep: %s record %d: schema %q, want %q", src, i+1, rec.Schema, SchemaVersion)
		}
		out = append(out, rec)
	}
	return out, nil
}

// priorIndex is the resume index: the last terminal record per key.
func priorIndex(recs []Record) map[string]Record {
	prior := make(map[string]Record, len(recs))
	for _, r := range recs {
		prior[r.Key] = r
	}
	return prior
}

// loadPriorFromReader builds the resume index from any results.Reader
// (the ledger, in practice), decoding payloads exactly as Load decodes
// log lines — so resuming against a ledger applies the same semantics
// as resuming against the log it replaces.
func loadPriorFromReader(r results.Reader) (map[string]Record, error) {
	raw, err := r.Records()
	if err != nil {
		return nil, err
	}
	recs, err := decodeRecords("sink", raw)
	if err != nil {
		return nil, err
	}
	return priorIndex(recs), nil
}

// loadPrior builds the resume index from the log at path; a missing
// log is an empty index.
func loadPrior(path string) (map[string]Record, error) {
	recs, err := Load(path)
	if os.IsNotExist(err) {
		return map[string]Record{}, nil
	}
	if err != nil {
		return nil, err
	}
	return priorIndex(recs), nil
}
