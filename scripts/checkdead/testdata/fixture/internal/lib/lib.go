// Package lib holds one exported identifier per case the checkdead test
// asserts.
package lib

// Used is called from the root module.
func Used() {}

// Dead has no caller at all.
func Dead() {}

// TestOnly is called only from a test file.
func TestOnly() {}

// NestedOnly is called only from the nested module.
func NestedOnly() {}

// Oracle is called only from a test and allowlisted.
func Oracle() int { return 1 }

// Stale is allowlisted but has a non-test caller.
func Stale() {}

// T is used by the root module; its String method is reached only
// through fmt.Stringer.
type T struct{}

// String implements fmt.Stringer.
func (T) String() string { return "T" }

// Unmentioned is allowlisted with a test that never uses it.
func Unmentioned() {}
