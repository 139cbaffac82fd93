package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"pds/internal/metrics"
)

// tailPercentiles is the ladder the tail rule picks from, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// rank returns the nearest-rank index of percentile p among n sorted
// samples, and how many samples lie beyond it.
func rank(p float64, n int) (idx, beyond int) {
	// The epsilon keeps float error (99.9% of 10000 = 9990.000000000002)
	// from pushing an exact rank up by one.
	k := int(math.Ceil(p/100*float64(n) - 1e-9))
	k = min(max(k, 1), n)
	return k - 1, n - k
}

// tail applies the tail rule: the highest percentile of the ladder with
// at least ten samples beyond it, or the maximum (reported as p100) when
// there are too few samples for any. It returns the value and the
// percentile chosen.
func tail(sorted []time.Duration) (time.Duration, float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	for _, p := range tailPercentiles {
		if idx, beyond := rank(p, n); beyond >= 10 {
			return sorted[idx], p
		}
	}
	return sorted[n-1], 100
}

// p50 returns the nearest-rank median of sorted samples.
func p50(sorted []time.Duration) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx, _ := rank(50, len(sorted))
	return sorted[idx]
}

func lastOr0(sorted []time.Duration) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[len(sorted)-1]
}

func sortDurations(xs []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// median of host measurements (mean of the middle two for even counts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// anchorRow names one row of internal/scenario/testdata/figure_rows.golden.
type anchorRow struct {
	section string
	x       float64
	label   string
}

// goldenPath is the pinned figure rows, relative to the repository root.
const goldenPath = "internal/scenario/testdata/figure_rows.golden"

// goldenLine returns the row's line in the golden file at root.
func (a *anchorRow) goldenLine(root string) (string, error) {
	data, err := os.ReadFile(root + "/" + goldenPath)
	if err != nil {
		return "", fmt.Errorf("read fidelity golden: %w", err)
	}
	in := false
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, " ") {
			in = line == a.section
			continue
		}
		if f := strings.Fields(line); in && len(f) > 4 && strings.Join(f[:len(f)-4], " ") == a.label {
			return line, nil
		}
	}
	return "", fmt.Errorf("golden %s has no row %q in %q", goldenPath, a.label, a.section)
}

// render formats a sample as the row pds-bench prints for it.
func (a *anchorRow) render(s metrics.Sample) string {
	series := &metrics.Series{Name: a.section}
	series.Add(a.x, a.label, s)
	return strings.Split(series.String(), "\n")[2]
}

// check compares a deployment's row with the golden row. It returns a
// description of the mismatch ("" when the rows agree); err reports a
// golden file that cannot be read.
func (a *anchorRow) check(root string, s metrics.Sample) (mismatch string, err error) {
	want, err := a.goldenLine(root)
	if err != nil {
		return "", err
	}
	if got := a.render(s); got != want {
		return fmt.Sprintf("fidelity anchor %s / %s: row %q, golden %q", a.section, a.label, got, want), nil
	}
	return "", nil
}
