package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sarmany/internal/report"
)

// TestExperimentTable runs every row of the experiment table at
// report.Small() and checks that the envelope carries the row's name and
// title, that the printed table has its header, and that the text is the
// same printed fresh and after a Marshal → RawResult → DecodeData round
// trip (the sweep-cache replay path). The kernels and scale rows are
// paper-scale measurements, so they decode and print the committed
// BENCH_kernels.json and BENCH_scale.json baselines instead of running.
func TestExperimentTable(t *testing.T) {
	headers := map[string][]string{
		"t1":       {"FFBP Implementations"},
		"fig7":     {"sharpness", "correlation"},
		"scaling":  {"cores"},
		"bw":       {"bytes/cycle"},
		"interp":   {"kernel"},
		"pipes":    {"pipelines"},
		"gbp":      {"faster"},
		"base":     {"levels"},
		"rda":      {"coherent gain"},
		"upsample": {"peak gain"},
		"chaos":    {"severity"},
		"kernels":  {"fused Mpx/s"},
		"scale":    {"conform"},
	}
	committed := map[string]string{"kernels": "BENCH_kernels.json", "scale": "BENCH_scale.json"}
	if got := len(Keys()); got != len(headers) {
		t.Fatalf("table has %d rows, test expects %d", got, len(headers))
	}

	for _, e := range Experiments() {
		t.Run(e.Key, func(t *testing.T) {
			var raw []byte
			var fresh string
			if file, ok := committed[e.Key]; ok {
				b, err := os.ReadFile(filepath.Join("..", "..", file))
				if err != nil {
					t.Fatal(err)
				}
				raw = b
			} else {
				imgDir := ""
				if e.Key == "fig7" {
					imgDir = t.TempDir()
				}
				res, err := Compute(context.Background(), e.Key, report.Small(), imgDir)
				if err != nil {
					t.Fatal(err)
				}
				if res.Name != e.Name || res.Title != e.Title {
					t.Errorf("envelope %q/%q, row %q/%q", res.Name, res.Title, e.Name, e.Title)
				}
				var buf bytes.Buffer
				if err := PrintResult(&buf, res); err != nil {
					t.Fatal(err)
				}
				fresh = buf.String()
				if raw, err = Marshal(res); err != nil {
					t.Fatal(err)
				}
				if imgDir != "" {
					for _, name := range []string{"fig7a_raw.png", "fig7b_gbp.png", "fig7c_ffbp_intel.png", "fig7d_ffbp_epiphany.png"} {
						if _, err := os.Stat(filepath.Join(imgDir, name)); err != nil {
							t.Errorf("fig7 image not written: %v", err)
						}
					}
				}
			}

			var rr RawResult
			if err := json.Unmarshal(raw, &rr); err != nil {
				t.Fatal(err)
			}
			if rr.Name != e.Name || rr.Title != e.Title {
				t.Errorf("stored envelope %q/%q, row %q/%q", rr.Name, rr.Title, e.Name, e.Title)
			}
			data, err := DecodeData(rr.Name, rr.Data)
			if err != nil {
				t.Fatal(err)
			}
			var decoded, replayed bytes.Buffer
			if err := PrintResult(&decoded, Result{Name: rr.Name, Data: data}); err != nil {
				t.Fatal(err)
			}
			if err := PrintResult(&replayed, Result{Name: rr.Name, Data: rr.Data}); err != nil {
				t.Fatal(err)
			}
			if replayed.String() != decoded.String() {
				t.Errorf("raw replay prints\n%s\ndecoded data prints\n%s", replayed.String(), decoded.String())
			}
			if fresh != "" && fresh != decoded.String() {
				t.Errorf("fresh envelope prints\n%s\nround trip prints\n%s", fresh, decoded.String())
			}
			for _, h := range headers[e.Key] {
				if !strings.Contains(decoded.String(), h) {
					t.Errorf("output missing %q:\n%s", h, decoded.String())
				}
			}
		})
	}

	t.Run("unknown", func(t *testing.T) {
		if _, err := Compute(context.Background(), "nope", report.Small(), ""); err == nil {
			t.Error("Compute: no error for unknown experiment key")
		}
		if _, ok := Lookup("nope"); ok {
			t.Error("Lookup found an unknown key")
		}
		if _, err := DecodeData("nope", json.RawMessage(`{}`)); err == nil {
			t.Error("DecodeData: no error for unknown envelope name")
		}
		if err := PrintResult(&bytes.Buffer{}, Result{Name: "nope", Data: 1}); err == nil {
			t.Error("PrintResult: no error for unknown envelope name")
		}
		if err := PrintResult(&bytes.Buffer{}, Result{Name: "scaling", Data: 1}); err == nil {
			t.Error("PrintResult: no error for data of the wrong type")
		}
	})
}

// TestBaseExperimentBases pins which factorization bases the base row
// runs: those of {2, 4} that the pulse count is a power of.
func TestBaseExperimentBases(t *testing.T) {
	run := func(pulses int) []BasePoint {
		t.Helper()
		cfg := report.Small()
		if pulses != 0 {
			cfg.Params.NumPulses = pulses
			cfg.Box = report.DefaultBox(cfg.Params)
		}
		res, err := Compute(context.Background(), "base", cfg, "")
		if err != nil {
			t.Fatal(err)
		}
		return res.Data.([]BasePoint)
	}
	if pts := run(0); len(pts) != 1 || pts[0].Base != 2 || pts[0].Levels != 7 {
		t.Errorf("small scale (128 pulses): points %+v, want base 2 alone with 7 levels", pts)
	}
	if pts := run(64); len(pts) != 2 || pts[0].Base != 2 || pts[0].Levels != 6 || pts[1].Base != 4 || pts[1].Levels != 3 {
		t.Errorf("64 pulses: points %+v, want bases 2 and 4 with 6 and 3 levels", pts)
	}

	cfg := report.Small()
	cfg.Params.NumPulses = 96
	cfg.Box = report.DefaultBox(cfg.Params)
	if _, err := Compute(context.Background(), "base", cfg, ""); err == nil {
		t.Error("96 pulses: no error, but 96 is a power of neither 2 nor 4")
	}
}
