package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestTailRule(t *testing.T) {
	samples := func(n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = time.Duration(i+1) * time.Second
		}
		return out
	}
	for _, tc := range []struct {
		n    int
		want time.Duration
		pct  float64
	}{
		{n: 1, want: 1 * time.Second, pct: 100},
		{n: 19, want: 19 * time.Second, pct: 100}, // p50 would leave 9 beyond
		{n: 20, want: 10 * time.Second, pct: 50},
		{n: 39, want: 20 * time.Second, pct: 50}, // p75 would leave 9 beyond
		{n: 40, want: 30 * time.Second, pct: 75},
		{n: 100, want: 90 * time.Second, pct: 90},
		{n: 200, want: 190 * time.Second, pct: 95},
		{n: 1000, want: 990 * time.Second, pct: 99},
		{n: 10000, want: 9990 * time.Second, pct: 99.9},
	} {
		got, pct := tail(samples(tc.n))
		if got != tc.want || pct != tc.pct {
			t.Errorf("n=%d: tail = %v at p%g, want %v at p%g", tc.n, got, pct, tc.want, tc.pct)
		}
	}
	if v, p := tail(nil); v != 0 || p != 0 {
		t.Errorf("no samples: tail = %v at p%g", v, p)
	}
	if got := p50(samples(10)); got != 5*time.Second {
		t.Errorf("p50 of 1..10 s = %v, want 5s", got)
	}
}

func tinyWorkload(t *testing.T, name string) *workload {
	t.Helper()
	for _, w := range workloads(true) {
		if w.name == name {
			return w
		}
	}
	t.Fatalf("no workload %q", name)
	return nil
}

// TestTinyDigestsAndChecks runs each workload's tiny size untraced twice
// and traced once: the digests repeat, the traced run passes event
// attribution and byte conservation, and outputs pass their checks.
func TestTinyDigestsAndChecks(t *testing.T) {
	for _, name := range []string{"pdr-grid", "pdd-mixedcast", "city-discovery"} {
		t.Run(name, func(t *testing.T) {
			wl := tinyWorkload(t, name)
			a := runDeployment(wl, 5, nil)
			b := runDeployment(wl, 5, nil)
			if a.out.digest != b.out.digest {
				t.Fatalf("repeated runs of seed 5 differ: %016x vs %016x", a.out.digest, b.out.digest)
			}
			if a.out.ops == 0 || a.out.failed != 0 || len(a.out.problems) > 0 {
				t.Fatalf("untraced run: %d ops, %d failed, problems %v", a.out.ops, a.out.failed, a.out.problems)
			}
			res, err := measureTraced(wl, config{workload: name, seed: 5, traced: true, root: ".."})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("traced run incorrect:\n%s", strings.Join(res.notes, "\n"))
			}
			m := res.Metrics
			parts := m["sim.events.radio"].Value + m["sim.events.link"].Value + m["sim.events.core"].Value + m["sim.events.bench"].Value
			if parts != m["sim.events"].Value || m["sim.events.core"].Value == 0 {
				t.Errorf("events by owner %v do not sum to sim.events %v", parts, m["sim.events"].Value)
			}
			var wireBytes float64
			for _, c := range wireClassNames {
				wireBytes += m["wire.bytes."+c].Value
			}
			if got := m["radio.tx_bytes"].Value + m["wire.bytes_unsent_end"].Value; got != wireBytes {
				t.Errorf("wire bytes %v != radio tx_bytes + unsent %v", wireBytes, got)
			}
		})
	}
}

// TestChecksCatchBadOutputs feeds the output checks wrong results.
func TestChecksCatchBadOutputs(t *testing.T) {
	good := make([]byte, 256<<10)
	for i := range good {
		good[i] = chunkByte(3, i)
	}
	if bad := checkChunk(3, good); bad != "" {
		t.Fatalf("published bytes rejected: %s", bad)
	}
	good[100]++
	if checkChunk(3, good) == "" {
		t.Error("a corrupted chunk passed the check")
	}
	if checkChunk(3, good[:10]) == "" {
		t.Error("a short chunk passed the check")
	}
	wl := tinyWorkload(t, "pdd-mixedcast")
	tr := wl.build(2, nil).(*pddTrial)
	tr.run()
	entries := tr.results[0].Entries
	if len(entries) < 2 || len(checkEntries(entries, tr.catalogue)) != 0 {
		t.Fatalf("clean discovery: %d entries, problems %v", len(entries), checkEntries(entries, tr.catalogue))
	}
	dup := append(append(entries[:0:0], entries...), entries[0])
	if len(checkEntries(dup, tr.catalogue)) == 0 {
		t.Error("a duplicate entry passed the check")
	}
	delete(tr.catalogue, entries[1].Key())
	if len(checkEntries(entries, tr.catalogue)) == 0 {
		t.Error("an unpublished entry passed the check")
	}
}

// TestFidelityAnchors runs the first full-size deployment of pdr-grid and
// pdd-mixedcast at seed 1 and compares them with the golden rows; a
// perturbed row must fail.
func TestFidelityAnchors(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size deployments take seconds")
	}
	for _, wl := range workloads(false) {
		if wl.anchor == nil {
			continue
		}
		d := runDeployment(wl, 1, nil)
		if mismatch, err := wl.anchor.check("..", d.out.row); err != nil || mismatch != "" {
			t.Errorf("%s: %v %s", wl.name, err, mismatch)
		}
		off := d.out.row
		off.Latency += time.Second
		if mismatch, err := wl.anchor.check("..", off); err != nil || mismatch == "" {
			t.Errorf("%s: a row 1 s slower matched the golden (err %v)", wl.name, err)
		}
	}
}

// TestBenchmarkJSONMatchesOutput checks that BENCHMARK.json names exactly
// the workloads and metrics the benchmark reports.
func TestBenchmarkJSONMatchesOutput(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads(false) {
		want = append(want, w.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, want)
	}
	for _, tc := range []struct {
		trace string
		spec  []struct{ Name, Unit string }
	}{{"0", spec.EndToEnd}, {"1", spec.PerLayer}} {
		wl := tinyWorkload(t, "pdr-grid")
		c := config{workload: wl.name, seed: 2, root: "..", traced: tc.trace == "1"}
		measure := measureEndToEnd
		if c.traced {
			measure = measureTraced
		}
		r, err := measure(wl, c)
		if err != nil {
			t.Fatalf("trace %s: %v", tc.trace, err)
		}
		var out, errs bytes.Buffer
		r.print(&out, &errs)
		if errs.Len() != 0 {
			t.Fatalf("trace %s: %s", tc.trace, errs.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line is not the result: %v", tc.trace, err)
		}
		if !res.Correct || res.Attempted < 1 {
			t.Errorf("trace %s: correct=%v attempted=%d", tc.trace, res.Correct, res.Attempted)
		}
		var got, listed []string
		for n, m := range res.Metrics {
			got = append(got, n+" "+m.Unit)
		}
		for _, m := range tc.spec {
			listed = append(listed, m.Name+" "+m.Unit)
		}
		sort.Strings(got)
		sort.Strings(listed)
		if strings.Join(got, "\n") != strings.Join(listed, "\n") {
			t.Errorf("trace %s: reported metrics\n%s\nBENCHMARK.json lists\n%s", tc.trace, strings.Join(got, "\n"), strings.Join(listed, "\n"))
		}
	}
}

func TestCLIRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "pdr-grid", "--trace", "2"},
		{"--bogus"},
	} {
		var out, errs bytes.Buffer
		if code := run(args, &out, &errs); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
