package obs

import (
	"bufio"
	"io"
	"strconv"
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
