package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/core/launch"
	"repro/internal/scenario"
	"repro/internal/simtest"
)

// TestMain lets this test binary serve as its own fabric worker: -fork
// re-executes the current binary with the worker spec in the environment.
func TestMain(m *testing.M) {
	launch.MaybeWorkerProcess()
	os.Exit(m.Run())
}

// identity extracts the three lines of a report that identify the run
// (t.Error, not Fatal: callers run under simtest.Deadline).
func identity(t *testing.T, stdout []byte) map[string]string {
	t.Helper()
	got := map[string]string{}
	for _, label := range []string{"simulated cycles", "checksum", "config digest"} {
		m := regexp.MustCompile(`(?m)^` + label + `\s+(\S+)`).FindSubmatch(stdout)
		if m == nil {
			t.Errorf("report has no %q line:\n%s", label, stdout)
			continue
		}
		got[label] = string(m[1])
	}
	return got
}

func recordIdentity(rec scenario.Record) map[string]string {
	return map[string]string{
		"simulated cycles": fmt.Sprint(rec.SimCycles),
		"checksum":         fmt.Sprintf("%016x", math.Float64bits(rec.Checksum)),
		"config digest":    rec.ConfigDigest,
	}
}

// TestReportsTheSweepRecordsCycles: the cycle count, checksum and config
// digest graphite prints for a run are those of the run's sweep record —
// in particular the workload's region of interest, not the largest tile
// clock at teardown.
func TestReportsTheSweepRecordsCycles(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "radix", "-tiles", "4", "-threads", "1", "-scale", "8", "-seed", "5"}, &stdout, &stderr); code != 0 {
		t.Fatalf("graphite exited %d: %s", code, stderr.String())
	}

	records, err := scenario.Run(&scenario.Scenario{
		Name:     "graphite-equivalent",
		Workload: "radix",
		Threads:  1,
		Scale:    8,
		Seed:     5,
		Base:     map[string]any{"Tiles": 4},
		Grids:    []scenario.Grid{{}},
	}, scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := records[0]
	if rec.SimCycles == uint64(rec.Stats.MaxCycles) {
		t.Fatal("test premise broken: the run's region of interest ends at its largest tile clock")
	}
	got := identity(t, stdout.Bytes())
	for label, want := range recordIdentity(rec) {
		if got[label] != want {
			t.Errorf("graphite printed %q for %s, the sweep record says %s\n%s", got[label], label, want, stdout.String())
		}
	}
}

// TestOneRunWhereverItsProcessesLive: the same single-thread simulation
// reports the same cycles, checksum and config digest with its two
// processes in this OS process, forked, or started by hand over a host
// list — and they are those of the equivalent scenario's record.
func TestOneRunWhereverItsProcessesLive(t *testing.T) {
	base := []string{"-workload", "radix", "-tiles", "16", "-threads", "1", "-scale", "8", "-sync", "lax_barrier", "-procs", "2"}
	hosts, err := launch.LocalHosts(2)
	if err != nil {
		t.Fatal(err)
	}
	byHand := []string{"-hosts", strings.Join(hosts, ","), "-connect-timeout", "20s"}

	records, err := scenario.Run(&scenario.Scenario{
		Name:     "graphite-equivalent",
		Workload: "radix",
		Threads:  1,
		Scale:    8,
		Seed:     1,
		Base:     map[string]any{"Tiles": 16, "Processes": 2, "Sync.Model": "lax_barrier"},
		Grids:    []scenario.Grid{{}},
	}, scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := recordIdentity(records[0])

	for _, tc := range []struct {
		name string
		args []string
		peer []string // a second invocation this one needs running beside it
	}{
		{name: "in-process"},
		{name: "fork", args: []string{"-fork"}},
		{name: "by hand", args: append([]string{"-proc", "0"}, byHand...), peer: append([]string{"-proc", "1"}, byHand...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			simtest.Deadline(t, 2*time.Minute, func() {
				peerDone := make(chan struct{})
				go func() {
					defer close(peerDone)
					if tc.peer == nil {
						return
					}
					var stdout, stderr bytes.Buffer
					if code := run(append(tc.peer, base...), &stdout, &stderr); code != 0 {
						t.Errorf("peer exited %d: %s", code, stderr.String())
					}
					if stdout.Len() != 0 {
						t.Errorf("a worker prints no report, got:\n%s", stdout.String())
					}
				}()
				var stdout, stderr bytes.Buffer
				if code := run(append(tc.args, base...), &stdout, &stderr); code != 0 {
					t.Errorf("graphite exited %d: %s", code, stderr.String())
					return
				}
				<-peerDone
				got := identity(t, stdout.Bytes())
				for label, w := range want {
					if got[label] != w {
						t.Errorf("%s: graphite printed %q, the scenario record says %s", label, got[label], w)
					}
				}
			})
		})
	}
}

// TestEnumFlagsUseTheConfigParsers: -sync and -coherence take
// every spelling a scenario file takes, and an unknown value is a usage
// error carrying the parser's message — not a silent default.
func TestEnumFlagsUseTheConfigParsers(t *testing.T) {
	for _, tc := range []struct {
		flag, value string
		wantErr     string
	}{
		{"-sync", "lax_barrier", ""},
		{"-sync", "LaxP2P", ""},
		{"-coherence", "full_map", ""},
		{"-coherence", "dir_nb", ""},
		{"-coherence", "dirnb", ""},
		{"-sync", "bogus", `unknown sync model "bogus"`},
		{"-coherence", "bogus", `unknown coherence kind "bogus"`},
	} {
		var stdout, stderr bytes.Buffer
		args := []string{"-workload", "radix", "-tiles", "4", "-threads", "1", "-scale", "6", "-procs", "2", tc.flag, tc.value}
		code := run(args, &stdout, &stderr)
		switch {
		case tc.wantErr == "" && code != 0:
			t.Errorf("%s %s: exited %d: %s", tc.flag, tc.value, code, stderr.String())
		case tc.wantErr != "" && (code != 2 || !strings.Contains(stderr.String(), tc.wantErr)):
			t.Errorf("%s %s: exited %d with %q, want 2 and %q", tc.flag, tc.value, code, stderr.String(), tc.wantErr)
		}
	}
}

// TestRoleFlagsRejectContradictions: a role the flags cannot describe is
// a usage error before anything is dialed or forked.
func TestRoleFlagsRejectContradictions(t *testing.T) {
	for _, tc := range []struct {
		args    string
		wantErr string
	}{
		{"-procs 2 -proc 1", "needs -hosts or -hostfile"},
		{"-procs 2 -proc 1 -fork -hosts 127.0.0.1:1,127.0.0.1:2", "excludes -fork"},
		{"-procs 2 -hosts 127.0.0.1:1", "1 hosts for 2 processes"},
		{"-procs 2 -hosts 127.0.0.1:1,127.0.0.1:2 -hostfile f", "mutually exclusive"},
		{"-procs 2 -hosts 127.0.0.1:1,127.0.0.1:2 -sync lax_barrier -checkpoint-every 4", "needs -checkpoint-dir"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(tc.args), &stdout, &stderr); code != 2 || !strings.Contains(stderr.String(), tc.wantErr) {
			t.Errorf("%s: exited %d with %q, want 2 and %q", tc.args, code, stderr.String(), tc.wantErr)
		}
	}
}
