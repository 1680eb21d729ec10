package lib

import "testing"

func TestOracle(t *testing.T) {
	if Oracle() != 1 {
		t.Fatal("oracle")
	}
	TestOnly()
}
