package network

import (
	"repro/internal/arch"
	"repro/internal/clock"
	"repro/internal/config"
	"repro/internal/queuemodel"
)

// Model computes the latency of one packet. Implementations share a common
// interface so they are swappable per traffic class (paper §3.3); models
// may keep internal contention state and must be safe for concurrent use.
type Model interface {
	// Name identifies the model in statistics output.
	Name() string
	// Delay returns the modeled network latency, in cycles, for a packet
	// of the given wire size departing src for dst at time depart.
	Delay(src, dst arch.TileID, bytes int, depart arch.Cycles) arch.Cycles
}

// NewModel constructs the configured model for one traffic class. tiles is
// the target tile count (mesh geometry); progress supplies the global
// progress approximation for contention queues.
func NewModel(cfg config.NetworkConfig, tiles int, progress *clock.ProgressWindow) Model {
	switch cfg.Kind {
	case config.NetMagic:
		return Magic{}
	case config.NetMeshHop:
		return newMesh(cfg, tiles, nil)
	case config.NetMeshContention:
		return newMesh(cfg, tiles, progress)
	case config.NetRing:
		return &Ring{cfg: cfg, tiles: tiles}
	default:
		return Magic{}
	}
}

// Ring models a bidirectional ring: packets take the shorter direction,
// paying per-hop latency plus serialization. It exists to demonstrate the
// paper's claim that any topology with one endpoint per tile is
// modelable behind the common Model interface.
type Ring struct {
	cfg   config.NetworkConfig
	tiles int
}

// Name implements Model.
func (r *Ring) Name() string { return "ring" }

// HopCount returns the shorter ring distance between two tiles.
func (r *Ring) HopCount(src, dst arch.TileID) int {
	if r.tiles <= 1 {
		return 0
	}
	d := int(dst) - int(src)
	if d < 0 {
		d = -d
	}
	if alt := r.tiles - d; alt < d {
		d = alt
	}
	return d
}

// Delay implements Model.
func (r *Ring) Delay(src, dst arch.TileID, bytes int, _ arch.Cycles) arch.Cycles {
	ser := arch.Cycles(0)
	if r.cfg.LinkBandwidth > 0 {
		ser = arch.Cycles((bytes + r.cfg.LinkBandwidth - 1) / r.cfg.LinkBandwidth)
	}
	return arch.Cycles(r.HopCount(src, dst))*r.cfg.HopLatency + ser
}

// Magic forwards packets with zero modeled delay. System traffic uses it so
// simulator control messages never influence simulated time.
type Magic struct{}

// Name implements Model.
func (Magic) Name() string { return "magic" }

// Delay implements Model.
func (Magic) Delay(arch.TileID, arch.TileID, int, arch.Cycles) arch.Cycles { return 0 }

// Mesh models a 2-D mesh with XY dimension-ordered routing. Latency is
// per-hop router latency times hop count plus serialization (packet size
// over link bandwidth). With a progress window attached, every link on the
// route is additionally a lax contention queue (queuemodel.Queue), giving
// the analytical contention model of the paper.
type Mesh struct {
	cfg    config.NetworkConfig
	width  int
	height int

	// links holds one contention queue — a bare queue clock — per
	// (router, direction) as a flat slice, built up front and indexed by
	// link. The queues are guarded by prog's lock, which Delay takes once
	// for a packet's whole route. nil without a contention model.
	links []queuemodel.Queue
	prog  *clock.ProgressWindow

	// Totals over every route, under prog's lock like the links and
	// updated once per route, never per hop.
	hops   uint64      // link admissions: the hops of every route
	waited arch.Cycles // their queueing delay
}

// Link directions. Each has its own block of links (see Mesh.link).
const (
	east = iota
	west
	north
	south
)

// link returns the index of the link leaving router (x, y) in direction
// dir. Each direction's links form one block, in row order for east and
// west and in column order for north and south, so a straight stretch of
// route walks adjacent queues — eight to a cache line — and a route
// touches about an eighth as many lines as it has hops. Inside the lock
// that matters: the lines a walk writes are the ones another worker's
// walk pulls back.
func (m *Mesh) link(x, y, dir int) int {
	if dir == east || dir == west {
		return dir*m.width*m.height + y*m.width + x
	}
	return dir*m.width*m.height + x*m.height + y
}

func newMesh(cfg config.NetworkConfig, tiles int, prog *clock.ProgressWindow) *Mesh {
	w := 1
	for w*w < tiles {
		w++
	}
	h := (tiles + w - 1) / w
	m := &Mesh{cfg: cfg, width: w, height: h, prog: prog}
	if prog != nil {
		m.links = make([]queuemodel.Queue, w*h*4)
	}
	return m
}

// Name implements Model.
func (m *Mesh) Name() string {
	if m.prog != nil {
		return "mesh_contention"
	}
	return "mesh_hop"
}

// geometry returns the mesh dimensions.
func (m *Mesh) geometry() (w, h int) { return m.width, m.height }

func (m *Mesh) coord(t arch.TileID) (x, y int) {
	return int(t) % m.width, int(t) / m.width
}

// HopCount returns the XY-routing hop count between two tiles.
func (m *Mesh) HopCount(src, dst arch.TileID) int {
	sx, sy := m.coord(src)
	dx, dy := m.coord(dst)
	return abs(dx-sx) + abs(dy-sy)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func (m *Mesh) serialization(bytes int) arch.Cycles {
	bw := m.cfg.LinkBandwidth
	if bw <= 0 {
		return 0
	}
	return arch.Cycles((bytes + bw - 1) / bw)
}

// Delay implements Model. With a contention model the packet's whole XY
// route is one critical section under the progress window's lock: hop by
// hop it is admitted to the outgoing link's queue at its running time t,
// which then advances by the link's wait and the router latency.
//
//graphite:hotpath
func (m *Mesh) Delay(src, dst arch.TileID, bytes int, depart arch.Cycles) arch.Cycles {
	ser := m.serialization(bytes)
	if src == dst {
		// Loopback through the local switch: serialization only.
		return ser
	}
	sx, sy := m.coord(src)
	dx, dy := m.coord(dst)
	hops := abs(dx-sx) + abs(dy-sy)
	if m.prog == nil {
		return arch.Cycles(hops)*m.cfg.HopLatency + ser
	}
	t := depart
	m.prog.Lock()
	if dx >= sx {
		t = m.walk(m.link(sx, sy, east), 1, dx-sx, t, ser)
	} else {
		t = m.walk(m.link(sx, sy, west), -1, sx-dx, t, ser)
	}
	if dy >= sy {
		t = m.walk(m.link(dx, sy, south), 1, dy-sy, t, ser)
	} else {
		t = m.walk(m.link(dx, sy, north), -1, sy-dy, t, ser)
	}
	m.hops += uint64(hops)
	m.waited += t - depart - arch.Cycles(hops)*m.cfg.HopLatency
	m.prog.Unlock()
	// t has advanced by every hop's wait and router latency.
	return t - depart + ser
}

// walk carries a packet over hops links in a straight line, starting at
// index link and moving stride per hop, and returns its time after the
// last. The caller holds prog's lock.
//
//graphite:hotpath
func (m *Mesh) walk(link, stride, hops int, t, ser arch.Cycles) arch.Cycles {
	return queuemodel.AdmitRoute(m.prog, m.links, link, stride, hops, t, ser, m.cfg.HopLatency)
}

// contentionStats reports the link admissions and queueing delay of
// every route so far.
func (m *Mesh) contentionStats() (packets uint64, totalDelay arch.Cycles) {
	if m.prog == nil {
		return 0, 0
	}
	m.prog.Lock()
	defer m.prog.Unlock()
	return m.hops, m.waited
}
