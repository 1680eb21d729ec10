// Command perfbench is the repository benchmark. It measures the two ways
// the system is used, from outside the program and only through public
// entry points:
//
//   - t1-paper: a researcher regenerating the paper's Table I at paper
//     scale through sweep.Run, back to back, one job at a time;
//   - serve-mix and serve-replay: clients submitting experiments to a
//     fresh sarserve daemon over its HTTP API, open loop at a fixed rate.
//
// Every output is checked against the pins in pins/. The last line of
// standard output is one JSON object: the end-to-end metrics with
// --trace 0, the per-layer metrics of a separately traced run with
// --trace 1. README.md explains each workload and metric.
//
// Usage, from the repository root (run.sh builds both binaries first):
//
//	bash perfbench/run.sh --workload serve-mix --seed 3 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run reports: the checked job counts and the
// metrics of the requested kind (end-to-end or per-layer).
type outcome struct {
	correct   bool
	attempted int
	failed    int
	names     []string
	metrics   map[string]metric
	notes     []string
}

func newOutcome() *outcome {
	return &outcome{correct: true, metrics: map[string]metric{}}
}

// set records a metric; the print order is the order of first setting.
func (o *outcome) set(name, unit string, v float64) {
	if _, ok := o.metrics[name]; !ok {
		o.names = append(o.names, name)
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// note adds a human-readable line printed above the result.
func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// mismatch marks the run incorrect and says why, once per distinct reason.
func (o *outcome) mismatch(format string, args ...any) {
	o.correct = false
	msg := "OUTPUT MISMATCH: " + fmt.Sprintf(format, args...)
	for _, n := range o.notes {
		if n == msg {
			return
		}
	}
	o.notes = append(o.notes, msg)
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sarserve string
	workdir  string
}

func main() {
	var opt options
	var traceFlag int
	flag.StringVar(&opt.workload, "workload", "", "workload: t1-paper, serve-mix or serve-replay")
	flag.Int64Var(&opt.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&opt.seconds, "seconds", 25, "measured run length in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&opt.sarserve, "sarserve", "", "path of the sarserve binary (serve workloads)")
	flag.StringVar(&opt.workdir, "workdir", "", "scratch directory for caches and ledgers")
	writePins := flag.Bool("write-pins", false, "recompute the output pins into pins/ and exit")
	flag.Parse()
	opt.trace = traceFlag == 1

	if *writePins {
		if err := writeAllPins(filepath.Join("perfbench", "pins")); err != nil {
			fatal(err)
		}
		return
	}
	if opt.seconds <= 0 || opt.workdir == "" || (traceFlag != 0 && traceFlag != 1) {
		fatal(errors.New("need --seconds > 0, --trace 0|1 and --workdir"))
	}
	pins, err := loadPins(filepath.Join("perfbench", "pins"))
	if err != nil {
		fatal(err)
	}
	printHostFacts()

	dir := filepath.Join(opt.workdir, strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)

	var out *outcome
	switch opt.workload {
	case "t1-paper":
		out, err = runT1(opt, pins)
	case "serve-mix", "serve-replay":
		out, err = runServe(opt, pins, dir)
	default:
		err = fmt.Errorf("unknown workload %q", opt.workload)
	}
	if err != nil {
		os.RemoveAll(dir)
		fatal(err)
	}
	emit(out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// printHostFacts states what the numbers were measured on.
func printHostFacts() {
	race := "off"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				race = "on"
			}
		}
	}
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d go=%s race=%s (sarserve built by run.sh without -race)\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), race)
}

// emit prints the notes, a table of the metrics, and the result line.
func emit(o *outcome) {
	for _, n := range o.notes {
		fmt.Println(n)
	}
	for _, name := range o.names {
		m := o.metrics[name]
		fmt.Printf("  %-34s %16.6g %s\n", name, m.Value, m.Unit)
	}
	for _, name := range o.names {
		if v := o.metrics[name].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			o.set(name, o.metrics[name].Unit, 0)
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.correct, o.attempted, o.failed, o.metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); NaN for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is the number of samples a tail percentile leaves above it.
const tailBeyond = 10

// tail returns the highest order statistic with tailBeyond samples above
// it, with its percentile rank. With too few samples it returns the
// maximum (rank 100).
func tail(xs []float64) (v, pct float64) {
	if len(xs) == 0 {
		return math.NaN(), 100
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n <= tailBeyond {
		return s[n-1], 100
	}
	return s[n-1-tailBeyond], 100 * float64(n-tailBeyond) / float64(n)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// peakRSS reads the VmHWM line of /proc/<pid>/status ("self" for this
// process), in bytes.
func peakRSS(pid string) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb * 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
