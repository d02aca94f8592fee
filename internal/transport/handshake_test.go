package transport

import (
	"encoding/binary"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
)

// freeAddrs reserves n distinct localhost addresses by binding ephemeral
// ports and releasing them immediately.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

// fakePeer listens on addr, accepts one connection, reads its hello and
// answers with the given one.
func fakePeer(t *testing.T, addr string, hello []byte) {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var theirs [32]byte
		if _, err := io.ReadFull(conn, theirs[:]); err != nil {
			return
		}
		conn.Write(hello)
	}()
}

// TestHandshakeRejectsProtoSkew: a peer answering with a hello pinning a
// different wire-format version must fail the dial loudly.
func TestHandshakeRejectsProtoSkew(t *testing.T) {
	addrs := freeAddrs(t, 2)
	hello := encodeHello(2, 0, 0, 0)
	binary.LittleEndian.PutUint32(hello[4:8], tcpProto+999)
	fakePeer(t, addrs[0], hello)

	_, err := DialTCP(TCPConfig{
		Proc: 1, Procs: 2, Addrs: addrs,
		DialTimeout: 2 * time.Second,
	})
	if err == nil {
		t.Fatal("dial against a proto-skewed peer succeeded")
	}
	if !strings.Contains(err.Error(), "proto") {
		t.Fatalf("error does not name the proto skew: %v", err)
	}
}

// TestHandshakeRejectsClusterSizeMismatch: a hello claiming a different
// total process count is a misconfigured launch (two simulations pointed
// at each other) and must be rejected by the accepting side.
func TestHandshakeRejectsClusterSizeMismatch(t *testing.T) {
	addrs := freeAddrs(t, 2)

	// A fake proc 1 that lets proc 0's outbound dial complete normally.
	fakePeer(t, addrs[1], encodeHello(2, 1, 0, 0))

	result := make(chan error, 1)
	go func() {
		tr, err := DialTCP(TCPConfig{
			Proc: 0, Procs: 2, Addrs: addrs,
			DialTimeout: 5 * time.Second,
		})
		if tr != nil {
			tr.Close()
		}
		result <- err
	}()

	// Dial proc 0's listener claiming to be proc 1 of a THREE-process run.
	conn, err := DialRetry(addrs[0], 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(encodeHello(3, arch.ProcID(1), 0, 0)); err != nil {
		t.Fatal(err)
	}

	select {
	case err := <-result:
		if err == nil {
			t.Fatal("accepting a peer from a different-size fabric succeeded")
		}
		if !strings.Contains(err.Error(), "3-process") {
			t.Fatalf("error does not name the size mismatch: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("DialTCP did not return")
	}
}

// TestHandshakeRejectsGenerationSkew: a worker surviving from a dead
// recovery attempt dials the re-forked fabric with its old generation
// number; the accepting side must refuse it so the zombie cannot inject
// pre-recovery traffic into the replacement run.
func TestHandshakeRejectsGenerationSkew(t *testing.T) {
	addrs := freeAddrs(t, 2)

	// A fake proc 1 that lets proc 0's outbound dial complete normally.
	fakePeer(t, addrs[1], encodeHello(2, 1, 0, 2))

	result := make(chan error, 1)
	go func() {
		tr, err := DialTCP(TCPConfig{
			Proc: 0, Procs: 2, Addrs: addrs,
			DialTimeout: 5 * time.Second,
			Generation:  2,
		})
		if tr != nil {
			tr.Close()
		}
		result <- err
	}()

	// Dial proc 0's listener as proc 1 of generation 1 — the attempt that
	// already died.
	conn, err := DialRetry(addrs[0], 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(encodeHello(2, arch.ProcID(1), 0, 1)); err != nil {
		t.Fatal(err)
	}

	select {
	case err := <-result:
		if err == nil {
			t.Fatal("accepting a stale-generation peer succeeded")
		}
		if !strings.Contains(err.Error(), "generation") {
			t.Fatalf("error does not name the generation skew: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("DialTCP did not return")
	}
}

// TestHandshakeRejectsGarbage: random bytes on the listen port (a port
// scanner, a stray client) must not be interpreted as fabric frames.
func TestHandshakeRejectsGarbage(t *testing.T) {
	addrs := freeAddrs(t, 2)

	fakePeer(t, addrs[1], encodeHello(2, 1, 0, 0))

	result := make(chan error, 1)
	go func() {
		tr, err := DialTCP(TCPConfig{
			Proc: 0, Procs: 2, Addrs: addrs,
			DialTimeout: 5 * time.Second,
		})
		if tr != nil {
			tr.Close()
		}
		result <- err
	}()

	conn, err := DialRetry(addrs[0], 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\nHost: nope\r\nUser-Agent: scanner\r\n\r\n")); err != nil {
		t.Fatal(err)
	}

	select {
	case err := <-result:
		if err == nil {
			t.Fatal("accepting a non-graphite peer succeeded")
		}
		if !strings.Contains(err.Error(), "not a graphite transport peer") {
			t.Fatalf("error does not identify the stranger: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("DialTCP did not return")
	}
}

// FuzzHello feeds arbitrary bytes to checkHello as the hello of the other
// end of a connection: it must not panic, and a hello it accepts names a
// process below the process count that is not the receiver itself.
func FuzzHello(f *testing.F) {
	f.Add(encodeHello(3, 1, 0, 0), uint8(3), uint8(0))
	f.Add(encodeHello(3, 2, 7, 2), uint8(3), uint8(2))
	f.Add(encodeHello(2, 1, 7, 1), uint8(2), uint8(0))
	f.Add(encodeHello(3, 5, 0, 0), uint8(3), uint8(0))
	f.Add([]byte("GET / HTTP/1.1\r\nHost: nope\r\n\r\n"), uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, b []byte, procs, self uint8) {
		cfg := TCPConfig{Procs: int(procs%8) + 1, FabricID: 7, Generation: 2}
		cfg.Proc = arch.ProcID(int(self) % cfg.Procs)
		from, err := checkHello(b, &cfg)
		if err != nil {
			return
		}
		if int(from) >= cfg.Procs || from == cfg.Proc {
			t.Fatalf("accepted a hello from process %d as process %d of %d", from, cfg.Proc, cfg.Procs)
		}
	})
}
