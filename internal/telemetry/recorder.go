package telemetry

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"sarmany/internal/obs"
)

// Sample is one heartbeat observation of a running simulation, produced
// by the Options.Progress callback (typically from emu.Chip.Progress).
type Sample struct {
	// Total is a monotone progress scalar — the sum of all core clocks.
	// The watchdog declares a stall when it stops moving.
	Total float64
	// Max is the furthest-ahead core clock, in cycles.
	Max float64
	// Phases counts barrier phases resolved so far.
	Phases uint64
	// Cores holds the per-core clocks (optional; enables the moving-core
	// count in the status line).
	Cores []float64
}

// Options configures a Recorder.
type Options struct {
	// Progress samples the live run. Required.
	Progress func() Sample
	// Interval is the heartbeat period (default 200ms).
	Interval time.Duration
	// StallAfter arms the watchdog: if the progress scalar does not move
	// for this long, the recorder dumps a post-mortem. Zero disables.
	StallAfter time.Duration
	// Deadline bounds the whole run: exceeding it triggers the same
	// post-mortem dump as a stall. Zero disables.
	Deadline time.Duration
	// Status, when non-nil, receives a live one-line progress display
	// (carriage-return overwritten) on every heartbeat — the epirun
	// -watch sink.
	Status io.Writer
	// Events, when non-nil, receives a heartbeat event per sample — the
	// flight-recorder ring the post-mortem replays.
	Events *obs.EventRing
	// PostmortemPath names the dump file (default
	// "out/postmortem-<pid>.txt").
	PostmortemPath string
	// OnDump, when non-nil, is called once after a post-mortem is
	// written (test hook / CLI logging).
	OnDump func(path string, reason string)
	// Clock overrides time.Now for tests (nil uses the real clock).
	Clock func() time.Time
}

// Recorder is the flight-recorder heartbeat of one live run: a goroutine
// sampling progress on a fixed interval, feeding the event ring and the
// live status line, and watching for stalls. Start it before the run,
// Stop it after.
type Recorder struct {
	opt   Options
	start time.Time
	stop  chan struct{}
	done  chan struct{}

	mu       sync.Mutex
	stalled  bool
	dumpPath string
}

// Start launches the heartbeat. The returned Recorder must be stopped.
func Start(opt Options) *Recorder {
	if opt.Progress == nil {
		panic("telemetry: Options.Progress is required")
	}
	if opt.Interval <= 0 {
		opt.Interval = 200 * time.Millisecond
	}
	if opt.Clock == nil {
		opt.Clock = time.Now
	}
	if opt.PostmortemPath == "" {
		opt.PostmortemPath = filepath.Join("out", fmt.Sprintf("postmortem-%d.txt", os.Getpid()))
	}
	r := &Recorder{
		opt:   opt,
		start: opt.Clock(),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go r.loop()
	return r
}

// Stop halts the heartbeat and finishes the status line. Idempotent.
func (r *Recorder) Stop() {
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	<-r.done
}

// Stalled reports whether the watchdog fired (stall or deadline).
func (r *Recorder) Stalled() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stalled
}

// PostmortemFile returns the dump path if the watchdog fired, else "".
func (r *Recorder) PostmortemFile() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dumpPath
}

func (r *Recorder) loop() {
	defer close(r.done)
	tick := time.NewTicker(r.opt.Interval)
	defer tick.Stop()

	var prev Sample
	lastMove := r.start
	dumped := false
	for {
		select {
		case <-r.stop:
			if r.opt.Status != nil {
				fmt.Fprintln(r.opt.Status) // leave the live line intact
			}
			return
		case <-tick.C:
		}
		now := r.opt.Clock()
		s := r.opt.Progress()
		moving := s.Total > prev.Total
		if moving {
			lastMove = now
		}
		r.opt.Events.Addf("heartbeat: phases=%d max=%.0fcy total=%.0fcy moving=%v",
			s.Phases, s.Max, s.Total, moving)
		if r.opt.Status != nil {
			fmt.Fprintf(r.opt.Status, "\r%s", statusLine(s, prev, now.Sub(r.start)))
		}

		reason := ""
		if r.opt.StallAfter > 0 && now.Sub(lastMove) >= r.opt.StallAfter {
			reason = fmt.Sprintf("no progress for %v (stall threshold %v)", now.Sub(lastMove).Round(time.Millisecond), r.opt.StallAfter)
		} else if r.opt.Deadline > 0 && now.Sub(r.start) >= r.opt.Deadline {
			reason = fmt.Sprintf("run exceeded deadline %v", r.opt.Deadline)
		}
		if reason != "" && !dumped {
			dumped = true
			path, err := r.dump(reason, s)
			r.mu.Lock()
			r.stalled = true
			r.dumpPath = path
			r.mu.Unlock()
			if err == nil && r.opt.OnDump != nil {
				r.opt.OnDump(path, reason)
			}
		}
		prev = s
	}
}

// statusLine renders the live one-line display: wall time, resolved
// phases, the leading core clock, and how many cores advanced since the
// previous heartbeat.
func statusLine(s, prev Sample, elapsed time.Duration) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%7.1fs  phase %-4d  %12.0f cycles", elapsed.Seconds(), s.Phases, s.Max)
	if len(s.Cores) > 0 {
		moving := 0
		for i, v := range s.Cores {
			if i < len(prev.Cores) && v > prev.Cores[i] {
				moving++
			} else if len(prev.Cores) == 0 && v > 0 {
				moving++
			}
		}
		fmt.Fprintf(&b, "  %2d/%d cores moving", moving, len(s.Cores))
	}
	return b.String()
}

// dump writes the post-mortem: the stall reason, the last sample, the
// flight-recorder event ring, and the stacks of every goroutine — what
// a wedged simulation leaves behind for diagnosis.
func (r *Recorder) dump(reason string, s Sample) (string, error) {
	path := r.opt.PostmortemPath
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()

	fmt.Fprintf(f, "post-mortem: %s\n", reason)
	fmt.Fprintf(f, "recorded: %s (run started %s)\n", r.opt.Clock().Format(time.RFC3339), r.start.Format(time.RFC3339))
	fmt.Fprintf(f, "last sample: phases=%d max=%.0f cycles total=%.0f cycles\n", s.Phases, s.Max, s.Total)
	if len(s.Cores) > 0 {
		fmt.Fprintf(f, "per-core cycles:\n")
		for i, v := range s.Cores {
			fmt.Fprintf(f, "  core %2d: %.0f\n", i, v)
		}
	}
	if r.opt.Events != nil {
		fmt.Fprintf(f, "\nflight recorder (most recent last):\n")
		if err := r.opt.Events.WriteText(f); err != nil {
			return path, err
		}
	}
	fmt.Fprintf(f, "\ngoroutine stacks:\n")
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	if _, err := f.Write(buf); err != nil {
		return path, err
	}
	return path, f.Sync()
}
