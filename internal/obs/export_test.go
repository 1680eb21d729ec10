package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenTracer builds a small fixed trace: two cores and a phase track on
// a 1 GHz chip, with compute, stall and phase spans.
func goldenTracer() *Tracer {
	tr := NewTracer(1e9)
	tr.NameProcess(0, "epiphany 4x4")
	tr.NameProcess(1, "refcpu")
	phases := tr.NewTrack(0, 0, "phases")
	c0 := tr.NewTrack(0, 1, "core 0")
	c1 := tr.NewTrack(0, 2, "core 1")
	cpu := tr.NewTrack(1, 1, "cpu")

	c0.Span(KindCompute, 0, 1000)
	c0.Span(KindStallExt, 1000, 1250)
	c0.Span(KindCompute, 1250, 2000)
	c0.Span(KindStallBarrier, 2000, 3000)
	c1.Span(KindCompute, 0, 1500)
	c1.Span(KindStallDMA, 1500, 1800)
	c1.Span(KindStallBarrier, 1800, 3000)
	phases.Span(KindPhaseBandwidth, 0, 3000)
	cpu.Span(KindStallMem, 10, 120.5)
	return tr
}

func TestWriteTraceEventGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTracer().WriteTraceEvent(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "trace_event_golden.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace_event output differs from golden:\n got: %s\nwant: %s", buf.Bytes(), want)
	}
}

func TestTraceEventIsValidJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTracer().WriteTraceEvent(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph   string  `json:"ph"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	var meta, complete int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			complete++
			if ev.Dur <= 0 {
				t.Errorf("complete event with non-positive dur: %+v", ev)
			}
		default:
			t.Errorf("unexpected event phase %q", ev.Ph)
		}
	}
	// 2 process names + 4 thread names; 9 spans.
	if meta != 6 || complete != 9 {
		t.Errorf("got %d metadata + %d complete events, want 6 + 9", meta, complete)
	}
	// 1000 cycles at 1 GHz = 1 µs.
	if ev := doc.TraceEvents[6]; ev.Name != "stall.ext" || ev.Ts != 1.0 || ev.Dur != 0.25 {
		t.Errorf("stall.ext event mistimed: %+v", ev)
	}
}

// TestWriteTraceEventEscapingGolden pins the export's JSON string
// escaping and field order for hostile display names: quotes,
// backslashes, control characters and non-ASCII text in process and
// thread names must produce stable, valid JSON.
func TestWriteTraceEventEscapingGolden(t *testing.T) {
	tr := NewTracer(2e9)
	tr.NameProcess(3, `mesh "4x4" \ epiphany`)
	esc := tr.NewTrack(3, 1, "core\t0 — «ω»")
	esc.Span(KindCompute, 0, 512)
	esc.Span(KindStallRead, 512, 640)

	var buf bytes.Buffer
	if err := tr.WriteTraceEvent(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "trace_event_escaping_golden.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("escaped trace_event output differs from golden:\n got: %s\nwant: %s", buf.Bytes(), want)
	}

	// The escaped output must still parse, with the names round-tripping.
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
			Args struct {
				Name string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("escaped output is not valid JSON: %v\n%s", err, buf.String())
	}
	var names []string
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			names = append(names, ev.Args.Name)
		}
	}
	if len(names) != 2 || names[0] != `mesh "4x4" \ epiphany` || names[1] != "core\t0 — «ω»" {
		t.Errorf("names did not round-trip: %q", names)
	}
}

// TestWriteTraceEventControlCharacters: names carrying control
// characters and invalid UTF-8 still produce valid JSON, and valid text
// round-trips.
func TestWriteTraceEventControlCharacters(t *testing.T) {
	tr := NewTracer(1e9)
	tr.NameProcess(0, "chip\x01\x1f\x7f <&>")
	tr.NewTrack(0, 1, "core\x00\xff").Span(KindCompute, 0, 10)

	var buf bytes.Buffer
	if err := tr.WriteTraceEvent(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("output is not valid JSON:\n%q", buf.String())
	}
	var doc struct {
		TraceEvents []struct {
			Args struct {
				Name string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if got := doc.TraceEvents[0].Args.Name; got != "chip\x01\x1f\x7f <&>" {
		t.Errorf("process name = %q", got)
	}
	if got := doc.TraceEvents[1].Args.Name; got != "core\x00\ufffd" {
		t.Errorf("thread name = %q, want invalid UTF-8 replaced by U+FFFD", got)
	}
	if strings.Contains(buf.String(), `\u003c`) {
		t.Errorf("output is HTML-escaped: %s", buf.String())
	}
}
