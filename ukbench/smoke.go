package main

// smoke.go is the benchmark's self-test: every workload, untraced and
// traced, at tiny sizes, checking that each run prints exactly the metrics
// BENCHMARK.json names, with their units, that every answer was right, and
// that LAYERS.md maps every per-layer metric.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the smoke check reads.
type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func runSmoke(ctx context.Context, base config, out io.Writer) error {
	raw, err := os.ReadFile(filepath.Join(base.root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	// Every per-layer metric must have its row in the layer map.
	layerMap, err := os.ReadFile(filepath.Join(base.root, "ukbench", "LAYERS.md"))
	if err != nil {
		return err
	}
	for _, m := range spec.PerLayer {
		if !strings.Contains(string(layerMap), "| `"+m.Name+"` |") {
			return fmt.Errorf("ukbench/LAYERS.md has no row for per-layer metric %s", m.Name)
		}
	}
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			cfg := base
			cfg.workload, cfg.trace, cfg.smoke = name, trace, true
			cfg.seconds, cfg.setups, cfg.reps = 1, 1, 1
			res, err := runWorkload(ctx, cfg)
			if err != nil {
				return fmt.Errorf("%s trace=%v: %w", name, trace, err)
			}
			var buf bytes.Buffer
			if err := res.print(&buf); err != nil {
				return err
			}
			if _, err := out.Write(buf.Bytes()); err != nil {
				return err
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if err := checkPrinted(buf.Bytes(), want, !trace); err != nil {
				return fmt.Errorf("%s trace=%v: %w", name, trace, err)
			}
		}
	}
	_, err = fmt.Fprintln(out, "smoke: ok")
	return err
}

// checkPrinted verifies a run's output: a "metric" line and a result-line
// entry with the right unit for each wanted metric and no others, a correct
// run without failures, and (end-to-end) ok_frac = 1.
func checkPrinted(output []byte, want []struct{ Name, Unit string }, endToEnd bool) error {
	printed := map[string]string{}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(output))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
		if f := strings.Fields(last); len(f) == 4 && f[0] == "metric" {
			printed[f[1]] = f[3]
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return fmt.Errorf("last line is not the result: %w", err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		return fmt.Errorf("result correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		return fmt.Errorf("result has %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			return fmt.Errorf("metric %s: result has %+v, want unit %q", m.Name, got, m.Unit)
		}
		if printed[m.Name] != m.Unit {
			return fmt.Errorf("metric %s: printed with unit %q, want %q", m.Name, printed[m.Name], m.Unit)
		}
	}
	if endToEnd && res.Metrics["ok_frac"].Value != 1 {
		return fmt.Errorf("ok_frac = %v, want 1", res.Metrics["ok_frac"].Value)
	}
	return nil
}
