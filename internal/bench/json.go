package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
)

// Result is the machine-readable envelope around one experiment's data,
// written as BENCH_<name>.json next to the human-readable table. Data
// holds the experiment's point slice or result struct (every point type
// in this package carries JSON tags); after a round trip through
// Marshal and RawResult (a sweep-cache replay) it is a json.RawMessage
// instead, which DecodeData turns back into the concrete type.
type Result struct {
	Name  string `json:"name"`
	Title string `json:"title,omitempty"`
	// Pulses and Bins record the workload scale the experiment ran at,
	// so stored results from different scales are distinguishable.
	Pulses int `json:"pulses,omitempty"`
	Bins   int `json:"bins,omitempty"`
	// Salt and Version record provenance: the envelope-schema salt and
	// the code version (git revision) that computed the data. Both are
	// omitempty so envelopes written before they existed — and the
	// committed benchdiff baselines, which tests construct directly —
	// decode and re-marshal unchanged.
	Salt    string `json:"salt,omitempty"`
	Version string `json:"version,omitempty"`
	Data    any    `json:"data"`
}

// RawResult is the read-side counterpart of Result: Data stays raw for
// the caller to decode into the experiment's concrete point type.
type RawResult struct {
	Name    string          `json:"name"`
	Title   string          `json:"title"`
	Pulses  int             `json:"pulses"`
	Bins    int             `json:"bins"`
	Salt    string          `json:"salt"`
	Version string          `json:"version"`
	Data    json.RawMessage `json:"data"`
}

// EnvelopeSalt is the schema salt stamped into envelopes Compute
// produces. Bump it when the envelope layout changes incompatibly so
// history-reading tools (sarlog trend) can tell generations apart.
const EnvelopeSalt = "sarmany-bench-v1"

// Filename returns the canonical result file name for an experiment.
func Filename(name string) string { return "BENCH_" + name + ".json" }

// Marshal renders the envelope in the canonical on-disk form (indented
// JSON, trailing newline) — the exact bytes WriteFile stores and the
// sweep cache replays, so a cached result is byte-identical to a fresh
// one.
func Marshal(r Result) ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteFile writes r as indented JSON to dir/BENCH_<r.Name>.json and
// returns the path.
func WriteFile(dir string, r Result) (string, error) {
	b, err := Marshal(r)
	if err != nil {
		return "", err
	}
	return WriteFileRaw(dir, r.Name, b)
}

// WriteFileRaw writes pre-marshaled envelope bytes (as produced by
// Marshal or replayed from the sweep cache) to dir/BENCH_<name>.json.
func WriteFileRaw(dir, name string, b []byte) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, Filename(name))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", err
	}
	return path, nil
}
