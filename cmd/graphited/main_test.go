package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUsageErrors: a command line graphited cannot carry out as written —
// an unknown flag, a stray argument, a setting that contradicts another —
// exits 2 with a message saying why, before it opens a cache or listens.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args    string
		wantErr string
	}{
		{"-bogus", "flag provided but not defined: -bogus"},
		{"-workers x", `invalid value "x" for flag -workers`},
		{"serve", `unexpected argument "serve"`},
		{"-addr 127.0.0.1:0 -cache d extra", `unexpected argument "extra"`},
		{"-cache-max-bytes 1024", "-cache-max-bytes tunes the record cache and needs -cache"},
	} {
		var stderr bytes.Buffer
		if code := run(strings.Fields(tc.args), &stderr); code != 2 || !strings.Contains(stderr.String(), tc.wantErr) {
			t.Errorf("%s: exited %d with %q, want 2 and %q", tc.args, code, stderr.String(), tc.wantErr)
		}
	}
}
