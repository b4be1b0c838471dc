package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// benchmarkFile mirrors the parts of ../BENCHMARK.json the smoke test
// checks against the code.
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

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runSmoke runs one reduced-size invocation and returns its result
// line and its exact-counts line.
func runSmoke(t *testing.T, workload string, trace int) (result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", workload, "--seed", "3", "--seconds", "1",
		"--trace", strconv.Itoa(trace), "--smoke", "-workdir", t.TempDir()}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s trace=%d: exit %d: %s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s trace=%d: last line is not a result: %v", workload, trace, err)
	}
	var exact string
	for _, l := range lines {
		if strings.HasPrefix(l, "finding ") {
			t.Errorf("%s trace=%d: %s", workload, trace, l)
		}
		if strings.HasPrefix(l, "exact ") {
			// Keep the JSON only: the counts must not depend on the pass.
			exact = l[strings.IndexByte(l, '{'):]
		}
	}
	if exact == "" {
		t.Fatalf("%s trace=%d: no exact line", workload, trace)
	}
	return res, exact
}

func checkMetrics(t *testing.T, label string, got map[string]metric, want map[string]string) {
	t.Helper()
	var names []string
	for n := range got {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, ok := want[n]; !ok {
			t.Errorf("%s: metric %s is not declared", label, n)
		}
	}
	for n, unit := range want {
		m, ok := got[n]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", label, n)
		case m.Unit != unit:
			t.Errorf("%s: metric %s unit %q, declared %q", label, n, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s = %v", label, n, m.Value)
		}
	}
}

// TestSmoke runs every workload at reduced size: each untraced run
// twice and each traced run once. It checks that the metric surface
// matches BENCHMARK.json, that no operation fails, that the exact
// counts repeat across runs and passes, and that the CPU shares of the
// traced pass sum to 1.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range bf.Workloads {
		declared = append(declared, w.Name)
	}
	if !reflect.DeepEqual(declared, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, code has %v", declared, workloadNames())
	}
	e2e, layers := map[string]string{}, map[string]string{}
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		layers[m.Name] = m.Unit
	}
	codeE2E, codeLayers := map[string]string{}, map[string]string{}
	for _, d := range endToEndDefs {
		codeE2E[d.name] = d.unit
	}
	for _, d := range perLayerDefs() {
		codeLayers[d.name] = d.unit
	}
	if !reflect.DeepEqual(e2e, codeE2E) || !reflect.DeepEqual(layers, codeLayers) {
		t.Fatalf("BENCHMARK.json metrics differ from endToEndDefs/perLayerDefs")
	}

	for _, wl := range workloadNames() {
		t.Run(wl, func(t *testing.T) {
			var exact []string
			for _, trace := range []int{0, 0, 1} {
				res, ex := runSmoke(t, wl, trace)
				exact = append(exact, ex)
				label := wl + " trace=" + strconv.Itoa(trace)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("%s: correct=%t failed=%d attempted=%d", label, res.Correct, res.Failed, res.Attempted)
				}
				if trace == 0 {
					checkMetrics(t, label, res.Metrics, e2e)
					for n, m := range res.Metrics {
						if m.Value == 0 {
							t.Errorf("%s: end-to-end metric %s is 0", label, n)
						}
					}
					continue
				}
				checkMetrics(t, label, res.Metrics, layers)
				var sum float64
				for n, m := range res.Metrics {
					if strings.HasSuffix(n, ".cpu_share") {
						sum += m.Value
					}
				}
				if math.Abs(sum-1) > 0.01 {
					t.Errorf("%s: cpu shares sum to %v", label, sum)
				}
			}
			for i := 1; i < len(exact); i++ {
				if exact[i] != exact[0] {
					t.Errorf("exact counts differ between runs:\n%s\n%s", exact[0], exact[i])
				}
			}
		})
	}
}
