package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUsageErrors: every command line graphite-sweep cannot carry out as
// written — an unknown flag, a stray argument, contradictory modes — exits
// 2 with a message saying why, before it reads, writes or dials
// anything.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args    string
		wantErr string
	}{
		{"-bogus", "flag provided but not defined: -bogus"},
		{"-parallel x", `invalid value "x" for flag -parallel`},
		{"table2", `unexpected argument "table2"`},
		{"-scenario s.json extra", `unexpected argument "extra"`},
		// A worker runs what its coordinator serves.
		{"-worker -connect 127.0.0.1:1 -scenario s.json", "-scenario belongs on the coordinator's command line"},
		{"-worker -connect 127.0.0.1:1 -serve 127.0.0.1:0", "-serve belongs on the coordinator's command line"},
		{"-worker -connect 127.0.0.1:1 -resume r.jsonl", "-resume belongs on the coordinator's command line"},
		{"-worker -connect 127.0.0.1:1 -out r.jsonl", "-out belongs on the coordinator's command line"},
		{"-worker", "-worker requires -connect"},
		{"-worker -connect 127.0.0.1:1 -cache d", "-cache applies to -scenario/-serve, not -worker"},
		{"-connect 127.0.0.1:1", "-connect requires -worker"},
		// Coordinator and resume.
		{"-serve 127.0.0.1:0", "-serve and -resume require -scenario"},
		{"-resume r.jsonl", "-serve and -resume require -scenario"},
		{"-scenario s.json -workers-expected 2", "-workers-expected requires -serve"},
		// Service mode.
		{"-submit http://127.0.0.1:1", "-submit requires -scenario"},
		{"-submit http://127.0.0.1:1 -scenario s.json -serve 127.0.0.1:0", "-submit is exclusive with -serve/-worker"},
		{"-submit http://127.0.0.1:1 -scenario s.json -resume r.jsonl", "-resume applies to local execution"},
		{"-submit http://127.0.0.1:1 -scenario s.json -cache d", "-cache applies to local execution"},
		// Experiment mode.
		{"-preset huge", `unknown preset "huge"`},
		{"-exp bogus", `unknown experiment "bogus"`},
		{"-exp table1 -sizes 16,x", "-sizes: "},
		{"-exp table1 -out skew.csv", "-out goes with -scenario, or with -exp fig7"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(strings.Fields(tc.args), &stdout, &stderr)
		if code != 2 || !strings.Contains(stderr.String(), tc.wantErr) {
			t.Errorf("%s: exited %d with %q, want 2 and %q", tc.args, code, stderr.String(), tc.wantErr)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: a usage error printed %q on stdout", tc.args, stdout.String())
		}
	}
}

// TestExperimentRuns: the flags parse into a run that prints its table.
func TestExperimentRuns(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "table1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exited %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "==== table1 (quick preset) ====") {
		t.Fatalf("no table1 header in:\n%s", stdout.String())
	}
}
