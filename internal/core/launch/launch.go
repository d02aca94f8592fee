// Package launch runs one simulation from a Spec: with its processes
// inside this OS process, or distributed across genuinely separate ones —
// the deployment mode of the paper's cluster experiments (§3.1, §4.2) —
// whose whole lifecycle it then supervises. It owns three concerns:
//
//   - host lists: parsing explicit multi-host address lists (one fabric
//     listen address per process) and allocating free localhost ports for
//     single-machine runs;
//   - child supervision: Group tracks forked worker processes and
//     guarantees they are killed and reaped on every coordinator exit
//     path, including signals — a crashed coordinator must never leave
//     orphaned workers behind;
//   - who builds the cluster: InProcess builds every process here,
//     Coordinate joins the fabric as process 0 and RunWorker as process N
//     (workers launched anywhere), and Run is the single-machine
//     convenience that forks the workers itself by re-executing the
//     current binary (see MaybeWorkerProcess) and replays the run when
//     one dies. What happens to a built cluster — checkpoint policy, Run
//     or Serve, result readback, acknowledged teardown — is core.Cluster's
//     and is the same for all of them.
//
// cmd/graphite's role flags are a thin CLI over this package, and
// internal/scenario executes every run through it, which makes "how many
// OS processes" a sweepable run parameter.
package launch

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"
)

// ParseHosts parses a comma-separated "host:port,host:port,…" list, one
// fabric listen address per process in process-ID order.
func ParseHosts(list string) ([]string, error) {
	var hosts []string
	for _, h := range strings.Split(list, ",") {
		h = strings.TrimSpace(h)
		if h == "" {
			continue
		}
		if _, _, err := net.SplitHostPort(h); err != nil {
			return nil, fmt.Errorf("launch: host %q: %w", h, err)
		}
		hosts = append(hosts, h)
	}
	if len(hosts) == 0 {
		return nil, errors.New("launch: empty host list")
	}
	return hosts, nil
}

// ReadHostsFile reads a hosts file: one "host:port" per line, blank lines
// and #-comments ignored.
func ReadHostsFile(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("launch: %w", err)
	}
	var entries []string
	for _, line := range strings.Split(string(data), "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		if line = strings.TrimSpace(line); line != "" {
			entries = append(entries, line)
		}
	}
	return ParseHosts(strings.Join(entries, ","))
}

// LocalHosts allocates n distinct free localhost addresses by binding
// ephemeral ports and releasing them all at once (binding everything
// before releasing anything keeps the kernel from handing the same port
// out twice).
func LocalHosts(n int) ([]string, error) {
	listeners := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range listeners {
			ln.Close()
		}
	}()
	hosts := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("launch: reserve port: %w", err)
		}
		listeners = append(listeners, ln)
		hosts = append(hosts, ln.Addr().String())
	}
	return hosts, nil
}

// checkLoopback returns an error if any host is not a loopback address —
// forking can only place workers on this machine.
func checkLoopback(hosts []string) error {
	for _, h := range hosts {
		host, _, err := net.SplitHostPort(h)
		if err != nil {
			return fmt.Errorf("launch: host %q: %w", h, err)
		}
		if host == "localhost" {
			continue
		}
		if ip := net.ParseIP(host); ip != nil && ip.IsLoopback() {
			continue
		}
		return fmt.Errorf("launch: cannot fork a worker for remote host %q; start it there yourself (graphite -proc N -hosts …)", h)
	}
	return nil
}

// child is one supervised worker process.
type child struct {
	cmd    *exec.Cmd
	reaped chan struct{} // closed once Wait has returned
	err    error         // valid after reaped
}

// Group supervises a set of forked worker processes. Every child is
// reaped by a dedicated goroutine the moment it exits, so no exit path —
// error return, panic escape, or signal — leaves a zombie, and Kill is
// always safe to call (`defer cmd.Wait()` orphans every worker when an
// error path calls os.Exit, which skips defers).
type Group struct {
	mu       sync.Mutex
	children []*child
	died     chan struct{}
	diedOnce sync.Once
}

// Start launches cmd under the group's supervision.
func (g *Group) Start(cmd *exec.Cmd) error {
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("launch: start worker: %w", err)
	}
	c := &child{cmd: cmd, reaped: make(chan struct{})}
	go func() {
		c.err = cmd.Wait()
		// Died before reaped: whoever has waited a child out (Wait,
		// WaitTimeout) finds Died already signalled.
		g.noteDeath()
		close(c.reaped)
	}()
	g.mu.Lock()
	g.children = append(g.children, c)
	g.mu.Unlock()
	registerLive(g)
	return nil
}

// Died returns a channel closed the first time any supervised child
// exits — for any reason, including a clean exit. A coordinator selects
// on it only while the run is in flight (a worker has no business
// exiting before the acknowledged teardown), so the close that every
// normal teardown eventually triggers is observed by no one.
func (g *Group) Died() <-chan struct{} {
	return g.diedChan()
}

func (g *Group) diedChan() chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.died == nil {
		g.died = make(chan struct{})
	}
	return g.died
}

func (g *Group) noteDeath() {
	d := g.diedChan()
	g.diedOnce.Do(func() { close(d) })
}

func (g *Group) snapshot() []*child {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]*child(nil), g.children...)
}

// Kill forcibly terminates every child that has not exited yet. It does
// not wait; follow with Wait to reap.
func (g *Group) Kill() {
	for _, c := range g.snapshot() {
		select {
		case <-c.reaped:
		default:
			c.cmd.Process.Kill()
		}
	}
}

// Wait blocks until every child has been reaped and returns their joined
// exit errors.
func (g *Group) Wait() error {
	var errs []error
	for _, c := range g.snapshot() {
		<-c.reaped
		if c.err != nil {
			errs = append(errs, fmt.Errorf("worker pid %d: %w", c.cmd.Process.Pid, c.err))
		}
	}
	unregisterLive(g)
	return errors.Join(errs...)
}

// WaitTimeout reaps every child, killing any that is still running when
// the deadline expires. A kill on this path is an error: after an
// acknowledged teardown every worker must exit on its own.
func (g *Group) WaitTimeout(d time.Duration) error {
	deadline := time.NewTimer(d)
	defer deadline.Stop()
	var errs []error
	for _, c := range g.snapshot() {
		select {
		case <-c.reaped:
		case <-deadline.C:
			g.Kill()
			<-c.reaped
			errs = append(errs, fmt.Errorf("worker pid %d did not exit within %v of teardown; killed", c.cmd.Process.Pid, d))
			continue
		}
		if c.err != nil {
			errs = append(errs, fmt.Errorf("worker pid %d: %w", c.cmd.Process.Pid, c.err))
		}
	}
	unregisterLive(g)
	return errors.Join(errs...)
}

// Live groups, killed by the process-wide signal handler: a coordinator
// dying to SIGINT/SIGTERM takes its workers with it instead of orphaning
// them. One handler serves all groups — per-group handlers would race
// each other re-raising the signal before every group had cleaned up.
var (
	liveMu  sync.Mutex
	live    = map[*Group]struct{}{}
	sigOnce sync.Once
)

func registerLive(g *Group) {
	liveMu.Lock()
	live[g] = struct{}{}
	liveMu.Unlock()
	sigOnce.Do(installSignalReaper)
}

func unregisterLive(g *Group) {
	liveMu.Lock()
	delete(live, g)
	liveMu.Unlock()
}

func installSignalReaper() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-ch
		liveMu.Lock()
		groups := make([]*Group, 0, len(live))
		for g := range live {
			groups = append(groups, g)
		}
		liveMu.Unlock()
		for _, g := range groups {
			g.Kill()
		}
		for _, g := range groups {
			for _, c := range g.snapshot() {
				<-c.reaped
			}
		}
		// Children are gone; die of the signal with its default
		// disposition so the parent sees a conventional exit status.
		signal.Stop(ch)
		if p, err := os.FindProcess(os.Getpid()); err == nil {
			p.Signal(sig)
		}
		time.Sleep(time.Second) // the re-raised signal should have killed us
		os.Exit(1)
	}()
}
