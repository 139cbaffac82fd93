package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"pds/internal/core"
	"pds/internal/scenario"
	"pds/internal/trace"
)

// runCaptured runs the CLI with args and returns what it printed to
// stdout.
func runCaptured(t *testing.T, args ...string) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	runErr := run(args)
	os.Stdout = stdout
	w.Close()
	return <-out, runErr
}

// writeSmallTrace runs a traced discovery on a 3×3 grid and writes its
// hop trace as JSONL, as pds-sim -trace-out does.
func writeSmallTrace(t *testing.T) string {
	t.Helper()
	d := scenario.Grid(3, 3, scenario.GridSpacing, scenario.Options{Seed: 1})
	tracer := d.EnableTracing(0)
	d.DistributeEntries(20, 1)
	if _, done := d.RunDiscovery(1, scenario.EntrySelector(), core.DiscoverOptions{}, time.Minute); !done {
		t.Fatal("discovery did not finish")
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteJSONL(f, tracer.Events()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

var rootsLine = regexp.MustCompile(`^\d+ events, (\d+) query roots`)

func TestListsRoots(t *testing.T) {
	path := writeSmallTrace(t)

	text, err := runCaptured(t, path)
	if err != nil {
		t.Fatal(err)
	}
	m := rootsLine.FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("no summary line in:\n%s", text)
	}
	if n, _ := strconv.Atoi(m[1]); n == 0 || !strings.Contains(text, "QUERY") {
		t.Fatalf("text output lists no roots:\n%s", text)
	}

	js, err := runCaptured(t, "-json", path)
	if err != nil {
		t.Fatal(err)
	}
	var roots []trace.QuerySummary
	if err := json.Unmarshal([]byte(js), &roots); err != nil {
		t.Fatalf("-json output does not decode: %v", err)
	}
	if len(roots) == 0 || roots[0].ID == 0 {
		t.Fatalf("-json output lists no roots: %s", js)
	}
	if n, _ := strconv.Atoi(m[1]); n != len(roots) {
		t.Fatalf("text lists %d roots, -json %d", n, len(roots))
	}

	detail, err := runCaptured(t, "-query", strconv.FormatUint(roots[0].ID, 10), path)
	if err != nil || detail == "" {
		t.Fatalf("-query %d: %v, output %q", roots[0].ID, err, detail)
	}
}

func TestErrors(t *testing.T) {
	path := writeSmallTrace(t)
	for _, args := range [][]string{
		{"-query", "999999999", path},
		{"-json", "-query", "999999999", path},
		{"-no-such-flag", path},
		{filepath.Join(t.TempDir(), "missing.jsonl")},
	} {
		if _, err := runCaptured(t, args...); err == nil {
			t.Errorf("%v: no error", args)
		}
	}
}
