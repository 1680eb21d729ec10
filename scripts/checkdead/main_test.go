package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckFixture runs the check over testdata/fixture: a root module
// whose internal/lib declares one exported identifier per case, and a
// nested module that reaches the root through a replace directive.
func TestCheckFixture(t *testing.T) {
	root := filepath.Join("testdata", "fixture")
	findings, err := check(root, filepath.Join(root, "allow.txt"))
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(findings, "\n")
	for _, c := range []struct {
		name    string
		flagged bool
	}{
		{"lib.Dead has no non-test caller", true},                    // uncalled
		{"lib.TestOnly has no non-test caller", true},                // called only from a _test.go file
		{"lib.T.String", false},                                      // satisfies fmt.Stringer
		{"lib.NestedOnly", false},                                    // called from the nested module
		{"lib.Oracle", false},                                        // allowlisted oracle
		{"lib.Used", false},                                          // called from the root module
		{"lib.Stale is allowlisted but has a non-test caller", true}, // stale entry
		{"lib.Unmentioned: no lib.TestOracle in a test file that mentions Unmentioned", true},
	} {
		if strings.Contains(got, c.name) != c.flagged {
			t.Errorf("flagged(%q) = %v, want %v; findings:\n%s", c.name, !c.flagged, c.flagged, got)
		}
	}
	if len(findings) != 4 {
		t.Errorf("%d findings, want 4:\n%s", len(findings), got)
	}
}
