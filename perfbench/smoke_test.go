package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks
// against.
type benchmarkSpec struct {
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

// TestSmoke runs every workload at minimal length, untraced and traced,
// and checks that each run passes its output checks, that every metric
// BENCHMARK.json names is emitted with its unit, that no operation
// failed, and that the generator never held more than two connections.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real netplaced processes")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.PerLayer) != len(layerUnits) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the traced run emits %d", len(spec.PerLayer), len(layerUnits))
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "netplaced")
	if out, err := exec.Command("go", "build", "-o", bin, "netplace/cmd/netplaced").CombinedOutput(); err != nil {
		t.Fatalf("building netplaced: %v\n%s", err, out)
	}
	for _, w := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace="+trace, func(t *testing.T) {
				var stdout bytes.Buffer
				args := []string{"-bin", bin, "-work", dir, "--workload", w.Name, "--seed", "7", "--seconds", "1", "--trace", trace}
				if err := run(args, &stdout); err != nil {
					t.Fatalf("run: %v\n%s", err, stdout.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stdout.String())
				}
				want := spec.EndToEnd
				if trace == "1" {
					want = spec.PerLayer
					span := filepath.Join(dir, w.Name+"-seed7.jsonl")
					if st, err := os.Stat(span); err != nil || st.Size() == 0 {
						t.Errorf("span file %s missing or empty (%v)", span, err)
					}
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				if trace == "0" && res.Metrics["ok_frac"].Value != 1 {
					t.Errorf("ok_frac = %v, want 1", res.Metrics["ok_frac"].Value)
				}
			})
		}
	}
	if m := conns.max.Load(); m > 2 {
		t.Errorf("generator held %d connections open at once, want at most 2", m)
	}
}
