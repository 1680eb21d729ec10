package serve

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"testing"
)

// FuzzJobSpec feeds arbitrary POST /v1/jobs bodies through the steps of
// admission that touch no store or quota state, decodeSpec then
// checkSpec: they must never panic, every rejection of a decoded spec
// must be a *SpecError (answered 400), and an accepted spec must yield
// the same 16-hex-character job ID on a second call. The committed
// corpus (testdata/fuzz/FuzzJobSpec) replays under plain `go test`.
func FuzzJobSpec(f *testing.F) {
	for _, b := range []string{
		`{"exp": "t1"}`,
		`{"exp": "gbp", "scale": "paper", "tenant": "a", "tag": "x", "timeout_seconds": 2}`,
		`{"exp": "nope"}`,
		`{"exp": "t1", "scale": "huge"}`,
		`{"exp": "t1", "extra": 1}`,
		`{"exp": "t1"} trailing`,
		`[]`,
		`null`,
		``,
	} {
		f.Add([]byte(b))
	}
	s := NewServer(Options{})
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeSpec(nil, io.NopCloser(bytes.NewReader(body)))
		if err != nil {
			return
		}
		id, _, err := s.checkSpec(spec)
		if err != nil {
			var se *SpecError
			if !errors.As(err, &se) {
				t.Fatalf("spec %+v rejected with %T %v, want *SpecError", spec, err, err)
			}
			return
		}
		if _, herr := hex.DecodeString(id); len(id) != 16 || herr != nil {
			t.Fatalf("spec %+v: job ID %q is not 16 hex characters", spec, id)
		}
		if id2, _, err := s.checkSpec(spec); err != nil || id2 != id {
			t.Fatalf("spec %+v: second call gave %q, %v; first gave %q", spec, id2, err, id)
		}
	})
}
