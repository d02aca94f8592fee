package launch

import (
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
)

// TestMain lets forked copies of this test binary serve as fabric
// workers: Run re-executes os.Executable(), which is the test binary
// here.
func TestMain(m *testing.M) {
	MaybeWorkerProcess()
	os.Exit(m.Run())
}

func testConfig(tiles, procs int) config.Config {
	cfg := config.Default()
	cfg.Tiles = tiles
	cfg.Processes = procs
	cfg.L1I = config.CacheConfig{Enabled: false}
	cfg.L1D = config.CacheConfig{Enabled: true, Size: 2 << 10, Assoc: 2, LineSize: 64, HitLatency: 1}
	cfg.L2 = config.CacheConfig{Enabled: true, Size: 16 << 10, Assoc: 4, LineSize: 64, HitLatency: 8}
	return cfg
}

// TestRunTwoProcesses is the zero-to-working path: fork one worker,
// coordinate a small run, verify stats flow back and both processes
// acknowledge teardown with a wall time.
func TestRunTwoProcesses(t *testing.T) {
	res, err := Run(&Spec{
		Workload: "fft",
		Threads:  1,
		Scale:    4,
		Config:   testConfig(4, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Totals.Instructions == 0 {
		t.Fatal("no instructions simulated")
	}
	if res.Stats.Totals.L2Misses == 0 {
		t.Fatal("no cross-tile memory traffic")
	}
	if len(res.Procs) != 2 {
		t.Fatalf("got %d proc reports, want 2", len(res.Procs))
	}
	for _, ps := range res.Procs {
		if !ps.Acked {
			t.Errorf("proc %d did not acknowledge teardown", ps.Proc)
		}
		if ps.Wall <= 0 {
			t.Errorf("proc %d reported wall time %v", ps.Proc, ps.Wall)
		}
	}
}

// TestRunRejectsRemoteHosts: forking can only place workers locally; a
// remote host in the list must fail loudly, before anything is spawned.
func TestRunRejectsRemoteHosts(t *testing.T) {
	_, err := Run(&Spec{
		Workload: "fft",
		Threads:  1,
		Scale:    4,
		Config:   testConfig(4, 2),
		Hosts:    []string{"127.0.0.1:39990", "10.11.12.13:39991"},
	})
	if err == nil || !strings.Contains(err.Error(), "remote host") {
		t.Fatalf("want a remote-host error, got %v", err)
	}
}

func TestGroupKillReapsChildren(t *testing.T) {
	if _, err := exec.LookPath("sleep"); err != nil {
		t.Skip("no sleep binary")
	}
	g := &Group{}
	if err := g.Start(exec.Command("sleep", "60")); err != nil {
		t.Fatal(err)
	}
	g.Kill()
	start := time.Now()
	err := g.Wait()
	if time.Since(start) > 5*time.Second {
		t.Fatal("Wait blocked after Kill")
	}
	// A killed child reports its signal as the exit error — the child was
	// reaped, not orphaned.
	if err == nil || !strings.Contains(err.Error(), "killed") {
		t.Fatalf("want a kill exit status, got %v", err)
	}
}

func TestGroupWaitTimeoutKillsStragglers(t *testing.T) {
	if _, err := exec.LookPath("sleep"); err != nil {
		t.Skip("no sleep binary")
	}
	g := &Group{}
	if err := g.Start(exec.Command("sleep", "60")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := g.WaitTimeout(200 * time.Millisecond)
	if time.Since(start) > 5*time.Second {
		t.Fatal("WaitTimeout did not enforce its deadline")
	}
	if err == nil || !strings.Contains(err.Error(), "did not exit") {
		t.Fatalf("want a straggler error, got %v", err)
	}
}

func TestParseHosts(t *testing.T) {
	hosts, err := ParseHosts(" a:1, b:2 ,c:3 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(hosts) != 3 || hosts[0] != "a:1" || hosts[2] != "c:3" {
		t.Fatalf("parsed %v", hosts)
	}
	if _, err := ParseHosts("no-port"); err == nil {
		t.Fatal("accepted an address without a port")
	}
	if _, err := ParseHosts(" , "); err == nil {
		t.Fatal("accepted an empty list")
	}
}

func TestReadHostsFile(t *testing.T) {
	path := t.TempDir() + "/hosts"
	content := "# cluster A\nhostA:36400\n\nhostB:36400 # second machine\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	hosts, err := ReadHostsFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(hosts) != 2 || hosts[0] != "hostA:36400" || hosts[1] != "hostB:36400" {
		t.Fatalf("parsed %v", hosts)
	}
}

func TestLocalHostsDistinct(t *testing.T) {
	hosts, err := LocalHosts(4)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, h := range hosts {
		if seen[h] {
			t.Fatalf("duplicate address %s in %v", h, hosts)
		}
		seen[h] = true
	}
}

// TestHostSharers: the processes whose listen addresses name one host
// split its cores, each by its rank among them. Host parts compare as
// written: IPv4, IPv6 and names alike.
func TestHostSharers(t *testing.T) {
	hosts := []string{
		"10.0.0.1:7000", "[::1]:7000", "node-a:7000", "10.0.0.1:7001",
		"node-b:7000", "[::1]:7001", "10.0.0.1:7002", "node-a:7001",
	}
	for _, tc := range []struct {
		proc, sharers, rank int
		share               int // of 4 cores, 16 tiles
	}{
		{0, 3, 0, 2}, {3, 3, 1, 1}, {6, 3, 2, 1},
		{1, 2, 0, 2}, {5, 2, 1, 2},
		{2, 2, 0, 2}, {7, 2, 1, 2},
		{4, 1, 0, 4},
	} {
		sharers, rank := hostSharers(hosts, tc.proc)
		if sharers != tc.sharers || rank != tc.rank {
			t.Errorf("process %d (%s): %d sharers, rank %d; want %d, rank %d",
				tc.proc, hosts[tc.proc], sharers, rank, tc.sharers, tc.rank)
		}
		if got := core.HostShare(4, sharers, rank, 16); got != tc.share {
			t.Errorf("process %d (%s): share %d of 4 cores, want %d", tc.proc, hosts[tc.proc], got, tc.share)
		}
	}
	// LocalHosts puts every process on 127.0.0.1.
	local, err := LocalHosts(3)
	if err != nil {
		t.Fatal(err)
	}
	for p := range local {
		if sharers, rank := hostSharers(local, p); sharers != 3 || rank != p {
			t.Errorf("LocalHosts process %d: %d sharers, rank %d; want 3, rank %d", p, sharers, rank, p)
		}
	}
}
