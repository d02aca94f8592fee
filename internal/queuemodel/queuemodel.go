// Package queuemodel implements the out-of-order queue contention model of
// paper §3.6.1. Under lax synchronization a packet reaching a shared
// resource (a memory controller, a mesh link) is processed immediately and
// may carry a timestamp in the simulated past or future, so a conventional
// cycle-by-cycle queue cannot be simulated. Instead each queue keeps an
// independent "queue clock" representing when the processing of everything
// already accepted will complete:
//
//	arrival(pkt) = max(timestamp(pkt), globalProgress)
//	delay(pkt)   = max(0, queueClock - arrival)
//	queueClock   = max(queueClock, arrival) + processingTime(pkt)
//
// where globalProgress comes from a clock.ProgressWindow. A packet's own
// timestamp participates in the arrival estimate: a tile that has run
// ahead sends packets that arrive after the backlog has drained and must
// not be charged for it, while packets from laggard tiles (and tiles with
// no running thread) are measured against global progress as the paper
// prescribes. Individual packets are modeled out of order, but aggregate
// queueing delay matches the offered load.
//
// Queues hold no lock of their own. Every queue measured against one
// progress window is guarded by that window's lock (one per simulated
// process), so a resource made of many queues — the mesh and its links —
// admits a packet to all of them inside one critical section.
package queuemodel

import (
	"repro/internal/arch"
	"repro/internal/clock"
)

// Queue is the state of one contended resource: its queue clock, one
// word, so that thousands pack into a flat slice. A resource that wants
// totals keeps them itself, once per admission of its own, not per queue
// (dram.Controller, network.Mesh). All access happens with the lock of the
// window the queue is measured against held, or after the simulation has
// quiesced.
type Queue struct {
	qclock arch.Cycles
}

// AdmitRoute admits a packet to hops queues in a row — qs[i], then every
// stride-th queue after it — as that many Delay calls would, at its
// running time t: past each queue t advances by the queue's wait and hop.
// It returns t after the last. The caller holds w's lock; the window's
// cursor stays in registers for the whole route.
//
//graphite:hotpath
func AdmitRoute(w *clock.ProgressWindow, qs []Queue, i, stride, hops int, t, service, hop arch.Cycles) arch.Cycles {
	service = max(service, 0)
	c := w.CursorLocked()
	for ; hops > 0; hops-- {
		var progress arch.Cycles
		c, progress = w.Sample(c, t)
		t += qs[i].admit(t, progress, service) + hop
		i += stride
	}
	w.SetCursorLocked(c)
	return t
}

// admit charges a packet with timestamp now, against global progress, to
// the queue and returns its wait.
//
//graphite:hotpath
func (q *Queue) admit(now, progress, service arch.Cycles) arch.Cycles {
	arrive := progress
	if now > arrive {
		arrive = now
	}
	var wait arch.Cycles
	if q.qclock > arrive {
		wait = q.qclock - arrive
		q.qclock += service
	} else {
		q.qclock = arrive + service
	}
	return wait
}

// Delay accepts a packet that needs service cycles of processing and
// returns its modeled queueing delay (waiting time, excluding service).
// now is the packet's own timestamp; it feeds the progress window so that
// queues stay current even on tiles with no active thread. It takes w's
// lock around the one admission.
//
//graphite:hotpath
func (q *Queue) Delay(w *clock.ProgressWindow, now, service arch.Cycles) arch.Cycles {
	w.Lock()
	w.ObserveLocked(now)
	wait := q.admit(now, w.NowLocked(), max(service, 0))
	w.Unlock()
	return wait
}

// Clock returns the current queue clock (diagnostics and tests).
func (q *Queue) Clock() arch.Cycles { return q.qclock }
