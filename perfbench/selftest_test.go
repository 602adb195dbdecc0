package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of ../BENCHMARK.json the self-test checks the
// printed metrics against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// tiny is a one-second run on a ~40 KB document.
func tiny(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload,
		seed:     7,
		seconds:  1,
		trace:    trace,
		docBytes: 40_000,
		workDir:  t.TempDir(),
		stdout:   &bytes.Buffer{},
		stderr:   &bytes.Buffer{},
	}
}

// lastLine decodes the result line a run printed.
func lastLine(t *testing.T, cfg config) result {
	t.Helper()
	out := strings.TrimSpace(cfg.stdout.(*bytes.Buffer).String())
	lines := strings.Split(out, "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return res
}

func TestEveryMetricPrintedWithUnit(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			cfg := tiny(t, w.Name, trace)
			if _, err := run(cfg); err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w.Name, trace, err, cfg.stderr)
			}
			res := lastLine(t, cfg)
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v (present %v), want unit %s", w.Name, trace, m.Name, got, ok, m.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

func TestQuantileEstimator(t *testing.T) {
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9*math.Max(1, math.Abs(want)) }
	for _, c := range []struct{ x, a, b, want float64 }{
		{0.3, 1, 1, 0.3},
		{0.5, 7, 7, 0.5},
		{0.2, 3, 1, 0.008},
		{0.9, 1, 2, 0.99},
		{0.5, 1500.5, 1500.5, 0.5},
	} {
		if got := betaInc(c.x, c.a, c.b); !near(got, c.want) {
			t.Errorf("betaInc(%v, %v, %v) = %v, want %v", c.x, c.a, c.b, got, c.want)
		}
	}
	same := make([]time.Duration, 40)
	for i := range same {
		same[i] = 3 * time.Millisecond
	}
	if got := pct(same, 0.99); !near(got, 3) {
		t.Errorf("p99 of a constant sample = %v ms, want 3", got)
	}
	var ramp []time.Duration
	for i := 1; i <= 101; i++ {
		ramp = append(ramp, time.Duration(i)*time.Millisecond)
	}
	if got := pct(ramp, 0.5); !near(got, 51) {
		t.Errorf("median of 1..101 ms = %v, want 51", got)
	}
	if got := pct(ramp, 0.99); got < 97 || got > 101 {
		t.Errorf("p99 of 1..101 ms = %v, want within the top ranks", got)
	}
}

func TestWrongOracleFailsTheRun(t *testing.T) {
	for _, w := range []string{"ingest", "serve", "burst"} {
		cfg := tiny(t, w, false)
		cfg.corruptOracle = true
		res, err := run(cfg)
		if !errors.Is(err, errCheck) {
			t.Fatalf("%s: run with a wrong oracle answer returned %v, want a check failure", w, err)
		}
		if res == nil || res.Correct {
			t.Errorf("%s: result %+v, want correct=false", w, res)
		}
	}
}
