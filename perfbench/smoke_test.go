package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestServiceWorkloadsSmoke runs the service and fleet workloads briefly,
// untraced and traced, and checks every output and the result line.
func TestServiceWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs in-process services")
	}
	for _, w := range []string{"service-mix", "fleet-skew"} {
		for _, trace := range []string{"0", "1"} {
			var out bytes.Buffer
			code := run([]string{"--workload", w, "--seed", "5", "--seconds", "0.3", "--trace", trace}, &out)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line is not a result: %v\n%s", w, trace, err, out.String())
			}
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace %s: exit %d, result %+v\n%s", w, trace, code, res, out.String())
			}
			want := endToEnd
			if trace == "1" {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, want %d", w, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace %s: metric %s missing or unit %q", w, trace, d.Name, m.Unit)
				}
				if trace == "0" && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w, d.Name, m.Value)
				}
			}
		}
	}
}
