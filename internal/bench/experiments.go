package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"sarmany/internal/ffbp"
	"sarmany/internal/obs"
	"sarmany/internal/report"
)

// Experiment is one row of the experiment table: the selector key
// (cmd/benchtab -exp, the sarserve "exp" field), the envelope name and
// title its result is stored under, and the driver, decoder and printer
// for its data. Rows are built by newExperiment, so all three agree on
// one concrete data type.
type Experiment struct {
	Key   string
	Name  string
	Title string

	// pulses and bins, when non-zero, replace the configuration's scale
	// in the envelope, for an experiment that pins its own workload.
	pulses, bins int

	run    func(ctx context.Context, cfg report.Config, imgDir string) (any, error)
	decode func(raw json.RawMessage) (any, error)
	print  func(w io.Writer, data any) error
}

// newExperiment builds a table row from a typed driver and printer. T is
// the type the driver returns, the type decode produces from a stored
// envelope, and the only type print accepts.
func newExperiment[T any](key, name, title string,
	driver func(ctx context.Context, cfg report.Config, imgDir string) (T, error),
	printer func(w io.Writer, data T)) Experiment {
	return Experiment{
		Key: key, Name: name, Title: title,
		run: func(ctx context.Context, cfg report.Config, imgDir string) (any, error) {
			return driver(ctx, cfg, imgDir)
		},
		decode: func(raw json.RawMessage) (any, error) {
			var v T
			if err := json.Unmarshal(raw, &v); err != nil {
				return nil, fmt.Errorf("decode %s envelope: %w", name, err)
			}
			return v, nil
		},
		print: func(w io.Writer, data any) error {
			v, ok := data.(T)
			if !ok {
				return fmt.Errorf("print %s envelope: unhandled data type %T", name, data)
			}
			printer(w, v)
			return nil
		},
	}
}

// experiments is the experiment table, in the canonical "-exp all"
// order. Keys, envelope names and titles are persisted (result files,
// sweep caches, run ledgers) and must not change.
var experiments = []Experiment{
	newExperiment("t1", "table1", "Table I and energy ratios",
		func(ctx context.Context, cfg report.Config, _ string) (*report.Table1, error) {
			return report.RunTable1(ctx, cfg)
		},
		func(w io.Writer, t *report.Table1) { fmt.Fprint(w, t.String()) }),
	newExperiment("fig7", "fig7", "Figure 7 quality metrics",
		func(ctx context.Context, cfg report.Config, imgDir string) (Fig7Result, error) {
			r, imgs, err := RunFigure7(ctx, cfg)
			if err == nil && imgDir != "" {
				err = saveFig7(imgs, imgDir)
			}
			return r, err
		}, printFig7),
	newExperiment("scaling", "scaling", "FFBP speedup vs core count",
		func(ctx context.Context, cfg report.Config, _ string) ([]ScalingPoint, error) {
			return RunScaling(ctx, cfg, []int{1, 2, 4, 8, 16, 32, 64})
		}, printScaling),
	newExperiment("bw", "bandwidth", "Off-chip bandwidth sweep",
		func(ctx context.Context, cfg report.Config, _ string) ([]BandwidthPoint, error) {
			return RunBandwidth(ctx, cfg, []float64{0.25, 0.5, 1, 2, 4})
		}, printBandwidth),
	newExperiment("interp", "interp", "FFBP quality vs interpolation kernel",
		func(ctx context.Context, cfg report.Config, _ string) ([]InterpPoint, error) {
			return RunInterp(ctx, cfg)
		}, printInterp),
	newExperiment("pipes", "pipelines", "Autofocus pipeline replication",
		func(ctx context.Context, cfg report.Config, _ string) ([]PipelinePoint, error) {
			return RunPipelines(ctx, cfg, []int{1, 2, 3, 4})
		}, printPipelines),
	newExperiment("gbp", "gbp_vs_ffbp", "GBP vs FFBP complexity",
		func(ctx context.Context, cfg report.Config, _ string) (GBPFFBPResult, error) {
			g, f, err := RunGBPvsFFBP(ctx, cfg)
			return GBPFFBPResult{GBPSeconds: g, FFBPSeconds: f, Speedup: g / f}, err
		}, printGBPvsFFBP),
	newExperiment("base", "bases", "Factorization base ablation",
		func(ctx context.Context, cfg report.Config, _ string) ([]BasePoint, error) {
			// Run each of bases 2 and 4 that the pulse count is a power of:
			// both at paper scale (1024), base 2 alone at 128 pulses.
			var bases []int
			for _, k := range []int{2, 4} {
				if _, ok := ffbp.Levels(cfg.Params.NumPulses, k); ok {
					bases = append(bases, k)
				}
			}
			if len(bases) == 0 {
				return nil, fmt.Errorf("bench: NumPulses %d is a power of neither 2 nor 4", cfg.Params.NumPulses)
			}
			return RunBases(ctx, cfg, bases)
		}, printBases),
	newExperiment("rda", "motivation", "Frequency vs time domain",
		func(ctx context.Context, cfg report.Config, _ string) (MotivationResult, error) {
			return RunMotivation(ctx, cfg)
		}, printMotivation),
	newExperiment("upsample", "upsample", "Range oversampling ablation",
		func(ctx context.Context, cfg report.Config, _ string) ([]UpsamplePoint, error) {
			return RunUpsample(ctx, cfg, []int{1, 2, 4})
		}, printUpsample),
	newExperiment("chaos", "chaos", "Fault-severity degradation sweep",
		func(ctx context.Context, cfg report.Config, _ string) ([]ChaosPoint, error) {
			return RunChaos(ctx, cfg, []float64{0, 0.25, 0.5, 1})
		}, printChaos),
	newExperiment("kernels", "kernels", "Fused kernel throughput",
		func(ctx context.Context, cfg report.Config, _ string) (KernelsResult, error) {
			return RunKernels(ctx, cfg)
		}, printKernels),
	// The scale sweep pins its own workload scale (see scale.go); the
	// envelope records that, not the config's.
	withScale(newExperiment("scale", "scale", "Manycore scale-up sweep",
		func(ctx context.Context, cfg report.Config, _ string) ([]ScalePoint, error) {
			return RunScale(ctx, cfg)
		}, printScale), scalePulses, scaleBins),
}

// withScale pins the workload scale an experiment's envelope records.
func withScale(e Experiment, pulses, bins int) Experiment {
	e.pulses, e.bins = pulses, bins
	return e
}

// Experiments returns the experiment table in the canonical "-exp all"
// order.
func Experiments() []Experiment { return append([]Experiment(nil), experiments...) }

// Lookup returns the table row for an experiment key.
func Lookup(key string) (Experiment, bool) {
	for _, e := range experiments {
		if e.Key == key {
			return e, true
		}
	}
	return Experiment{}, false
}

// byName returns the table row whose envelope is stored under name.
func byName(name string) (Experiment, bool) {
	for _, e := range experiments {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Keys lists the experiment selector keys Compute accepts, in the
// canonical "-exp all" order.
func Keys() []string {
	keys := make([]string, len(experiments))
	for i, e := range experiments {
		keys[i] = e.Key
	}
	return keys
}

// Compute runs the experiment selected by key (the cmd/benchtab -exp
// names) and returns its machine-readable envelope without printing
// anything. The single filesystem side effect is the Fig. 7 image set,
// written into imgDir when key is "fig7" and imgDir is non-empty. The
// context is threaded into the experiment and checked between simulation
// units. When the context carries a request span (a traced sarserve
// submission), the experiment is recorded as a "bench.<key>" child
// span, so request traces show the simulation stage by name.
func Compute(ctx context.Context, key string, cfg report.Config, imgDir string) (res Result, err error) {
	if sp := obs.SpanFromContext(ctx).Child("bench." + key); sp != nil {
		defer func() {
			if err != nil {
				sp.SetAttr("error", err.Error())
			}
			sp.End()
		}()
	}
	e, ok := Lookup(key)
	if !ok {
		return res, fmt.Errorf("unknown experiment %q", key)
	}
	data, err := e.run(ctx, cfg, imgDir)
	if err != nil {
		return res, err
	}
	res = Result{
		Name: e.Name, Title: e.Title,
		Pulses: cfg.Params.NumPulses, Bins: cfg.Params.NumBins,
		Salt: EnvelopeSalt, Version: Version(),
		Data: data,
	}
	if e.pulses != 0 {
		res.Pulses, res.Bins = e.pulses, e.bins
	}
	return res, nil
}

// DecodeData converts a raw envelope payload (as read back from a
// BENCH_<name>.json file or the sweep cache) into the concrete data type
// Compute produces for that envelope name.
func DecodeData(name string, raw json.RawMessage) (any, error) {
	e, ok := byName(name)
	if !ok {
		return nil, fmt.Errorf("unknown envelope name %q", name)
	}
	return e.decode(raw)
}

// PrintResult renders the envelope's human-readable table to w. It
// accepts both freshly computed envelopes (Data holds the concrete type)
// and replayed ones (Data is a json.RawMessage from the sweep cache or a
// result file).
func PrintResult(w io.Writer, res Result) error {
	e, ok := byName(res.Name)
	if !ok {
		return fmt.Errorf("unknown envelope name %q", res.Name)
	}
	data := res.Data
	if raw, ok := data.(json.RawMessage); ok {
		var err error
		if data, err = e.decode(raw); err != nil {
			return err
		}
	}
	return e.print(w, data)
}
