package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
)

// WriteTraceEvent writes the collected tracks in the Chrome trace_event
// JSON format understood by Perfetto (https://ui.perfetto.dev) and
// chrome://tracing: metadata events naming each process and thread,
// followed by one complete ("ph":"X") event per span. Timestamps are in
// microseconds, converted from cycles with the tracer's clock. The output
// is deterministic: processes sorted by pid, tracks in creation order,
// spans in recording order.
func (tr *Tracer) WriteTraceEvent(w io.Writer) error {
	ew := newTraceEventWriter(w)
	for _, p := range tr.processes() {
		ew.metadata(p.pid, -1, p.name)
	}
	usPerCycle := 1e6 / tr.clockHz
	for _, t := range tr.Tracks() {
		ew.metadata(t.pid, t.tid, t.name)
		for _, s := range t.Spans() {
			ew.complete(t.pid, t.tid, "sim", s.Kind.String(), s.Start*usPerCycle, s.Duration()*usPerCycle)
		}
	}
	return ew.close()
}

// traceEventWriter encodes the trace_event document both
// Tracer.WriteTraceEvent and TraceDoc.WriteTraceEvent produce. Strings
// are escaped as JSON requires (control characters as \u00XX, invalid
// UTF-8 as U+FFFD) but, unlike encoding/json's default, not HTML-escaped.
type traceEventWriter struct {
	bw    *bufio.Writer
	buf   []byte
	first bool
}

func newTraceEventWriter(w io.Writer) *traceEventWriter {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	return &traceEventWriter{bw: bw, first: true}
}

// metadata writes the event naming a process (tid < 0) or a thread.
func (ew *traceEventWriter) metadata(pid, tid int, name string) {
	b := append(ew.buf[:0], `{"ph":"M","pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	kind := "process_name"
	if tid >= 0 {
		b = append(b, `,"tid":`...)
		b = strconv.AppendInt(b, int64(tid), 10)
		kind = "thread_name"
	}
	b = append(b, `,"name":"`...)
	b = append(b, kind...)
	b = append(b, `","args":{"name":`...)
	b = appendJSONString(b, name)
	ew.emit(append(b, "}}"...))
}

// complete writes one complete ("ph":"X") event with microsecond
// timestamps; args, if any, are key/value pairs.
func (ew *traceEventWriter) complete(pid, tid int, cat, name string, ts, dur float64, args ...string) {
	b := append(ew.buf[:0], `{"ph":"X","pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	b = append(b, `,"cat":`...)
	b = appendJSONString(b, cat)
	b = append(b, `,"name":`...)
	b = appendJSONString(b, name)
	b = append(b, `,"ts":`...)
	b = strconv.AppendFloat(b, ts, 'f', 3, 64)
	b = append(b, `,"dur":`...)
	b = strconv.AppendFloat(b, dur, 'f', 3, 64)
	if len(args) > 0 {
		b = append(b, `,"args":{`...)
		for i := 0; i+1 < len(args); i += 2 {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(b, args[i])
			b = append(b, ':')
			b = appendJSONString(b, args[i+1])
		}
		b = append(b, '}')
	}
	ew.emit(append(b, '}'))
}

func (ew *traceEventWriter) emit(event []byte) {
	if !ew.first {
		ew.bw.WriteString(",\n")
	}
	ew.first = false
	ew.bw.Write(event)
	ew.buf = event
}

// close ends the document and reports the first write error, if any.
func (ew *traceEventWriter) close() error {
	ew.bw.WriteString("\n]}\n")
	return ew.bw.Flush()
}

// appendJSONString appends s to b as a JSON string literal.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	for _, r := range s { // invalid UTF-8 ranges as utf8.RuneError (U+FFFD)
		switch {
		case r == '"' || r == '\\':
			b = append(b, '\\', byte(r))
		case r == '\n':
			b = append(b, '\\', 'n')
		case r == '\r':
			b = append(b, '\\', 'r')
		case r == '\t':
			b = append(b, '\\', 't')
		case r < 0x20:
			b = append(b, '\\', 'u', '0', '0', hex[r>>4], hex[r&0xf])
		default:
			b = utf8.AppendRune(b, r)
		}
	}
	return append(b, '"')
}

// timelineGlyphs maps span kinds to the character that fills a timeline
// cell: '#' compute, lower-case letters for stalls, upper-case for phase
// classifications.
var timelineGlyphs = [numKinds]byte{
	KindCompute:        '#',
	KindStallRead:      'r',
	KindStallExt:       'e',
	KindStallDMA:       'd',
	KindStallLink:      'l',
	KindStallBarrier:   'b',
	KindStallMem:       'm',
	KindPhaseCompute:   'C',
	KindPhaseBandwidth: 'B',
	KindService:        's',
	KindFaultLink:      'X',
	KindFaultDMA:       'x',
}

// WriteTimeline renders the tracks as a fixed-width plain-text timeline:
// one row per track, each of width cells covering [0, latest span end]
// cycles, every cell showing the span kind that occupied most of it
// (' ' = idle/untracked). A legend and the cycle span follow the rows.
func (tr *Tracer) WriteTimeline(w io.Writer, width int) error {
	if width < 10 {
		width = 10
	}
	tracks := tr.Tracks()
	var end float64
	for _, t := range tracks {
		for _, s := range t.Spans() {
			if s.End > end {
				end = s.End
			}
		}
	}
	if end == 0 {
		_, err := fmt.Fprintln(w, "obs: no spans recorded")
		return err
	}
	cell := end / float64(width)
	nameW := 0
	for _, t := range tracks {
		if len(t.Name()) > nameW {
			nameW = len(t.Name())
		}
	}
	for _, t := range tracks {
		// Weight per cell and kind; the dominant kind fills the cell.
		weights := make([][numKinds]float64, width)
		for _, s := range t.Spans() {
			lo := int(s.Start / cell)
			hi := int(s.End / cell)
			if hi >= width {
				hi = width - 1
			}
			for i := lo; i <= hi; i++ {
				cLo := float64(i) * cell
				cHi := cLo + cell
				ov := minf(s.End, cHi) - maxf(s.Start, cLo)
				if ov > 0 {
					weights[i][s.Kind] += ov
				}
			}
		}
		row := make([]byte, width)
		for i := range row {
			row[i] = ' '
			best := 0.0
			for k, wt := range weights[i] {
				if wt > best {
					best = wt
					row[i] = timelineGlyphs[k]
				}
			}
		}
		line := fmt.Sprintf("%-*s |%s|", nameW, t.Name(), row)
		if d := t.Dropped(); d > 0 {
			line += fmt.Sprintf(" (%d spans dropped)", d)
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	var legend []string
	for k := Kind(0); k < numKinds; k++ {
		legend = append(legend, fmt.Sprintf("%c=%s", timelineGlyphs[k], k))
	}
	if _, err := fmt.Fprintf(w, "%-*s  0 .. %.0f cycles; %s\n",
		nameW, "", end, strings.Join(legend, " ")); err != nil {
		return err
	}
	if d := tr.Dropped(); d > 0 {
		_, err := fmt.Fprintf(w, "WARNING: %d spans dropped (ring overflow) — early activity is missing above; rerun with a larger track capacity\n", d)
		return err
	}
	return nil
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
