package obs

import "testing"

// FuzzParseTraceparent feeds arbitrary header values to the parser of
// the inbound W3C traceparent header: it must never panic, and whatever
// it accepts must survive a Traceparent/ParseTraceparent round trip
// unchanged. The committed corpus (testdata/fuzz/FuzzParseTraceparent)
// replays under plain `go test`.
func FuzzParseTraceparent(f *testing.F) {
	for _, h := range []string{
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00",
		"01-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-03",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",
		" 00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01\t",
		"00-4bf92f3577b34da6-00f067aa0ba902b7-01",
		"---",
		"",
	} {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, h string) {
		id, parent, sampled, ok := ParseTraceparent(h)
		if !ok {
			if !id.IsZero() || !parent.IsZero() || sampled {
				t.Fatalf("rejected %q but returned %v %v %v", h, id, parent, sampled)
			}
			return
		}
		if id.IsZero() || parent.IsZero() {
			t.Fatalf("accepted %q with a zero ID: %v %v", h, id, parent)
		}
		out := Traceparent(id, parent, sampled)
		id2, parent2, sampled2, ok2 := ParseTraceparent(out)
		if !ok2 || id2 != id || parent2 != parent || sampled2 != sampled {
			t.Fatalf("round trip of %q via %q = %v %v %v %v, want %v %v %v true",
				h, out, id2, parent2, sampled2, ok2, id, parent, sampled)
		}
	})
}
