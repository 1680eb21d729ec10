package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"path"
	"sort"
	"strconv"
	"strings"
)

// DiffOptions controls envelope comparison.
type DiffOptions struct {
	// Tolerance is the relative tolerance for numeric leaves: values
	// differing by more than Tolerance*max(|old|, |new|) are findings.
	// Zero means exact comparison.
	Tolerance float64
	// Advisory lists path.Match patterns (against the dotted leaf path,
	// e.g. "data.seconds*") for leaves that are reported but never gate —
	// wall-clock and host-shape fields that legitimately vary between
	// machines and runs.
	Advisory []string
}

// Finding is one divergence between two envelopes.
type Finding struct {
	// Path is the dotted leaf path, e.g. "data[3].seconds".
	Path string
	// Old and New are the formatted leaf values ("(missing)" when the
	// leaf exists on only one side).
	Old, New string
	// Delta is the relative change for numeric leaves (0 otherwise).
	Delta float64
	// Advisory marks leaves matched by DiffOptions.Advisory: reported
	// for the record, not a regression.
	Advisory bool
}

// String renders the finding as one report line: the leaf path, the old
// and new values, the relative change for numeric leaves, and an
// "(advisory)" tag when the leaf does not gate.
func (f Finding) String() string {
	tag := ""
	if f.Advisory {
		tag = " (advisory)"
	}
	if f.Delta != 0 {
		return fmt.Sprintf("%s: %s -> %s (%+.1f%%)%s", f.Path, f.Old, f.New, 100*f.Delta, tag)
	}
	return fmt.Sprintf("%s: %s -> %s%s", f.Path, f.Old, f.New, tag)
}

// Regressions counts the non-advisory findings.
func Regressions(fs []Finding) int {
	n := 0
	for _, f := range fs {
		if !f.Advisory {
			n++
		}
	}
	return n
}

// DiffEnvelopes compares two BENCH_*.json envelope documents leaf by
// leaf: both are flattened to dotted paths, numeric leaves compare under
// the relative tolerance, and everything else compares exactly. Leaves
// present on only one side are findings too, so a silently dropped
// metric cannot pass the gate. Findings come back sorted by path,
// regressions before advisory notes.
func DiffEnvelopes(oldDoc, newDoc []byte, opt DiffOptions) ([]Finding, error) {
	oldLeaves, err := flattenJSON(oldDoc)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	newLeaves, err := flattenJSON(newDoc)
	if err != nil {
		return nil, fmt.Errorf("candidate: %w", err)
	}

	paths := make([]string, 0, len(oldLeaves))
	for p := range oldLeaves {
		paths = append(paths, p)
	}
	for p := range newLeaves {
		if _, ok := oldLeaves[p]; !ok {
			paths = append(paths, p)
		}
	}
	sort.Strings(paths)

	var out []Finding
	for _, p := range paths {
		o, haveOld := oldLeaves[p]
		n, haveNew := newLeaves[p]
		f := Finding{Path: p, Advisory: matchAny(opt.Advisory, p)}
		switch {
		case !haveOld:
			f.Old, f.New = "(missing)", n.format()
		case !haveNew:
			f.Old, f.New = o.format(), "(missing)"
		case o.isNum && n.isNum:
			if ref := math.Max(math.Abs(o.num), math.Abs(n.num)); math.Abs(n.num-o.num) <= opt.Tolerance*ref {
				continue
			}
			f.Old, f.New = o.format(), n.format()
			if o.num != 0 {
				f.Delta = (n.num - o.num) / math.Abs(o.num)
			}
		default:
			if o.raw == n.raw {
				continue
			}
			f.Old, f.New = o.format(), n.format()
		}
		out = append(out, f)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Advisory != out[j].Advisory {
			return !out[i].Advisory
		}
		return out[i].Path < out[j].Path
	})
	return out, nil
}

// NumericLeaves flattens a JSON document to its numeric scalar leaves,
// keyed by dotted path exactly as DiffEnvelopes names them
// ("data[3].seconds"). Non-numeric leaves and numbers outside float64
// range are omitted. This is the query surface history tools (sarlog
// trend) use to track one metric across stored envelopes.
func NumericLeaves(doc []byte) (map[string]float64, error) {
	leaves, err := flattenJSON(doc)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(leaves))
	for p, l := range leaves {
		if l.isNum {
			out[p] = l.num
		}
	}
	return out, nil
}

// leaf is one flattened JSON scalar.
type leaf struct {
	raw   string // canonical textual form, for non-numeric comparison
	num   float64
	isNum bool
}

func (l leaf) format() string { return l.raw }

// flattenJSON parses doc and maps every scalar leaf to its dotted path.
// Object keys become ".key" steps and array elements "[i]" steps;
// numbers keep full float64 precision for tolerance comparison.
func flattenJSON(doc []byte) (map[string]leaf, error) {
	dec := json.NewDecoder(strings.NewReader(string(doc)))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	out := map[string]leaf{}
	flattenValue(v, "", out)
	return out, nil
}

func flattenValue(v any, at string, out map[string]leaf) {
	switch t := v.(type) {
	case map[string]any:
		for k, c := range t {
			p := k
			if at != "" {
				p = at + "." + k
			}
			flattenValue(c, p, out)
		}
	case []any:
		for i, c := range t {
			flattenValue(c, fmt.Sprintf("%s[%d]", at, i), out)
		}
	case json.Number:
		n, err := t.Float64()
		out[at] = leaf{raw: t.String(), num: n, isNum: err == nil}
	case string:
		out[at] = leaf{raw: strconv.Quote(t)}
	case bool:
		out[at] = leaf{raw: strconv.FormatBool(t)}
	case nil:
		out[at] = leaf{raw: "null"}
	}
}

// matchAny reports whether any pattern matches p. Dotted paths contain no
// '/', so a '*' in a pattern spans arbitrarily (path.Match semantics).
func matchAny(patterns []string, p string) bool {
	for _, pat := range patterns {
		if ok, _ := path.Match(pat, p); ok {
			return true
		}
	}
	return false
}
