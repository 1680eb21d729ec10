package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Output pins: each checked experiment's envelope, recorded at the commit
// that introduced the benchmark, with the fields that legitimately differ
// between builds and runs removed (see normalize). Any other difference,
// down to the last digit of a simulated cycle count, is a wrong output.
//
// Pin files are named <scale>-<exp>.json. paper-t1-counts.json holds the
// exact simulated counts of the traced Table I run.

// hostLeaves are envelope leaves that measure the host, not the model.
var hostLeaves = map[string]bool{"host_ms": true}

// normalize strips the provenance fields (salt, version) and the host
// wall-clock leaves from an envelope and re-encodes it canonically.
func normalize(raw []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var env map[string]any
	if err := dec.Decode(&env); err != nil {
		return nil, fmt.Errorf("decode envelope: %w", err)
	}
	if _, ok := env["data"]; !ok {
		return nil, fmt.Errorf("envelope has no data")
	}
	delete(env, "salt")
	delete(env, "version")
	dropHostLeaves(env)
	return json.MarshalIndent(env, "", " ")
}

func dropHostLeaves(v any) {
	switch t := v.(type) {
	case map[string]any:
		for k, c := range t {
			if hostLeaves[k] {
				delete(t, k)
				continue
			}
			dropHostLeaves(c)
		}
	case []any:
		for _, c := range t {
			dropHostLeaves(c)
		}
	}
}

// pinSet holds the pinned envelopes and remembers bodies already checked,
// so a byte-identical replay is verified by its hash alone.
type pinSet struct {
	envelopes map[string][]byte // "<scale>-<exp>" -> normalized envelope
	counts    map[string]float64

	mu       sync.Mutex
	verified map[[32]byte]string
}

func pinKey(scale, exp string) string { return scale + "-" + exp }

func loadPins(dir string) (*pinSet, error) {
	ps := &pinSet{envelopes: map[string][]byte{}, verified: map[[32]byte]string{}}
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		key := strings.TrimSuffix(filepath.Base(name), ".json")
		if key == "paper-t1-counts" {
			if err := json.Unmarshal(b, &ps.counts); err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			continue
		}
		ps.envelopes[key] = bytes.TrimSpace(b)
	}
	if len(ps.envelopes) == 0 || ps.counts == nil {
		return nil, fmt.Errorf("no output pins in %s", dir)
	}
	return ps, nil
}

// check compares an envelope with its pin and describes the first
// differing leaf on a mismatch.
func (ps *pinSet) check(key string, raw []byte) error {
	sum := sha256.Sum256(raw)
	ps.mu.Lock()
	done := ps.verified[sum] == key
	ps.mu.Unlock()
	if done {
		return nil
	}
	want, ok := ps.envelopes[key]
	if !ok {
		return fmt.Errorf("%s: no pin", key)
	}
	got, err := normalize(raw)
	if err != nil {
		return fmt.Errorf("%s: %w", key, err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s: %s", key, firstDiff(want, got))
	}
	ps.mu.Lock()
	ps.verified[sum] = key
	ps.mu.Unlock()
	return nil
}

// checkCounts compares exact simulated counts with their pins.
func (ps *pinSet) checkCounts(got map[string]float64) error {
	for _, k := range sortedKeys(ps.counts) {
		if got[k] != ps.counts[k] {
			return fmt.Errorf("simulated count %s = %v, pinned %v", k, got[k], ps.counts[k])
		}
	}
	return nil
}

// firstDiff names the first leaf (in path order) where two canonical
// JSON documents differ.
func firstDiff(want, got []byte) string {
	w, g := map[string]string{}, map[string]string{}
	if err := flatten(want, w); err != nil {
		return "pin unreadable: " + err.Error()
	}
	if err := flatten(got, g); err != nil {
		return "output unreadable: " + err.Error()
	}
	paths := map[string]bool{}
	for k := range w {
		paths[k] = true
	}
	for k := range g {
		paths[k] = true
	}
	keys := make([]string, 0, len(paths))
	for k := range paths {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if w[k] != g[k] {
			return fmt.Sprintf("leaf %s = %q, pinned %q", k, g[k], w[k])
		}
	}
	return "documents differ in layout"
}

func flatten(doc []byte, out map[string]string) error {
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return err
	}
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch t := v.(type) {
		case map[string]any:
			for k, c := range t {
				walk(path+"."+k, c)
			}
		case []any:
			for i, c := range t {
				walk(fmt.Sprintf("%s[%d]", path, i), c)
			}
		default:
			out[path] = fmt.Sprint(t)
		}
	}
	walk("", v)
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writeAllPins recomputes every pin from the current tree. Pins record
// the model's outputs; rewrite them only for a change that is meant to
// move a modeled result, and review the diff leaf by leaf.
func writeAllPins(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(key string, b []byte) error {
		return os.WriteFile(filepath.Join(dir, key+".json"), append(b, '\n'), 0o644)
	}
	for _, exp := range serveExps {
		if exp == knownDefectExp {
			continue
		}
		raw, err := computeEnvelope(exp, "small")
		if err != nil {
			return fmt.Errorf("%s: %w", exp, err)
		}
		n, err := normalize(raw)
		if err != nil {
			return err
		}
		if err := write(pinKey("small", exp), n); err != nil {
			return err
		}
	}
	raw, err := computeEnvelope("t1", "paper")
	if err != nil {
		return err
	}
	n, err := normalize(raw)
	if err != nil {
		return err
	}
	if err := write(pinKey("paper", "t1"), n); err != nil {
		return err
	}
	tr, err := tracedTable1()
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(tr.counts, "", " ")
	if err != nil {
		return err
	}
	return write("paper-t1-counts", b)
}
