package simtest

import (
	"testing"
	"time"
)

// recorder stands in for a *testing.T whose failure must not fail this
// test.
type recorder struct {
	testing.TB
	failed bool
}

func (r *recorder) Helper()                       {}
func (r *recorder) Fatalf(string, ...interface{}) { r.failed = true }

func TestDeadline(t *testing.T) {
	ran := false
	Deadline(t, time.Minute, func() { ran = true })
	if !ran {
		t.Fatal("fn did not run")
	}

	release := make(chan struct{})
	defer close(release)
	r := &recorder{TB: t}
	start := time.Now()
	Deadline(r, 20*time.Millisecond, func() { <-release })
	if !r.failed {
		t.Fatal("a hung fn did not fail the test")
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("Deadline waited for the hung fn")
	}
}
