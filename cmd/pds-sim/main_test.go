package main

import (
	"io"
	"os"
	"regexp"
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

// hostFields matches the row's wall-clock fields: elapsed host time
// and the throughput derived from it.
var hostFields = regexp.MustCompile(`wall=\S+|throughput=.*$`)

// TestCitySmoke runs a small city-scale simulation twice: the same
// seed must print the same row, wall-clock fields aside.
func TestCitySmoke(t *testing.T) {
	args := []string{"-nodes", "200", "-deadline", "2m"}
	first, err := runCaptured(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	second, err := runCaptured(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(first, "mode=city nodes=200 ") {
		t.Fatalf("unexpected row %q", first)
	}
	a := hostFields.ReplaceAllString(strings.TrimSpace(first), "")
	b := hostFields.ReplaceAllString(strings.TrimSpace(second), "")
	if a != b {
		t.Fatalf("same seed, different rows:\n%s\n%s", a, b)
	}
}

func TestUnknownRoutingRejected(t *testing.T) {
	out, err := runCaptured(t, "-routing", "no-such-strategy")
	if err == nil || !strings.Contains(err.Error(), "unknown routing strategy") {
		t.Fatalf("err = %v, want an unknown routing strategy error", err)
	}
	if out != "" {
		t.Fatalf("printed %q before rejecting the flag", out)
	}
}
