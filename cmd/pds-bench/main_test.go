package main

import (
	"io"
	"os"
	"strings"
	"testing"
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

func TestUsageErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{nil, "expected one figure name"},
		{[]string{"fig12", "fig8"}, "expected one figure name"},
		{[]string{"-runs", "1", "no-such-figure"}, "unknown figure"},
		{[]string{"-no-such-flag", "fig12"}, "not defined"},
	} {
		_, err := runCaptured(t, c.args...)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: error %v, want one containing %q", c.args, err, c.want)
		}
	}
}

// TestFig12Smoke runs the cheapest retrieval figure at its smallest
// size, without -json, so no report file is written.
func TestFig12Smoke(t *testing.T) {
	out, err := runCaptured(t, "-runs", "1", "-size", "1", "fig12")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"==== Figure 12", "recall", "x1.0 rates"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output lacks %q:\n%s", want, out)
		}
	}
}
