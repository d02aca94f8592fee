package synchro

import (
	"repro/internal/arch"
)

// oracle is the MCP's LaxBarrier release rule as it stood before Round:
// three tile sets (blocked, simWaits, recvBlocked) beside a running count,
// the stale-receive-report filter, and the release loop that repeats while
// the condition holds. The code below keeps that rule's logic line for
// line (mcp.Server's handle, handleThreadExit, handleSimBarrierBatch,
// block, unblock and recheckSimBarrier), minus the transport: a release is
// returned, not sent. The explorer runs it beside Round as a differential
// oracle, and with repeat off as the mutation that must park.
type oracle struct {
	running     int
	exited      map[arch.TileID]bool
	blocked     map[arch.TileID]bool
	simWaits    map[arch.TileID]int64
	recvBlocked map[arch.TileID]bool
	proc        func(arch.TileID) int

	// repeat is the release loop; without it a stale wait released first
	// leaves the real waits behind it pending.
	repeat bool
	// twoSets records that some tile was once in two sets, or in a set
	// after its exit: from there on the oracle's count is off and its
	// releases are no longer compared.
	twoSets bool
}

func newOracle(tiles int, proc func(arch.TileID) int, repeat bool) *oracle {
	return &oracle{
		running:     tiles,
		exited:      map[arch.TileID]bool{},
		blocked:     map[arch.TileID]bool{},
		simWaits:    map[arch.TileID]int64{},
		recvBlocked: map[arch.TileID]bool{},
		proc:        proc,
		repeat:      repeat,
	}
}

// heard is the first line of handle: a tile that speaks to the MCP is not
// blocked receiving.
func (o *oracle) heard(tile arch.TileID) { delete(o.recvBlocked, tile) }

func (o *oracle) block(tile arch.TileID) []release {
	o.blocked[tile] = true
	return o.recheck()
}

func (o *oracle) unblock(tile arch.TileID) { delete(o.blocked, tile) }

func (o *oracle) exit(tile arch.TileID) []release {
	if o.exited[tile] {
		return nil
	}
	o.exited[tile] = true
	o.running--
	delete(o.simWaits, tile)
	return o.recheck()
}

func (o *oracle) batch(waits []EpochWait) []release {
	for _, w := range waits {
		if w.Epoch >= 0 {
			o.simWaits[w.Tile] = w.Epoch
			delete(o.recvBlocked, w.Tile)
			continue
		}
		_, waiting := o.simWaits[w.Tile]
		if !o.exited[w.Tile] && !waiting && !o.blocked[w.Tile] {
			o.recvBlocked[w.Tile] = true
		}
	}
	return o.recheck()
}

func (o *oracle) recheck() []release {
	o.noteTwoSets()
	var out []release
	for len(o.simWaits) > 0 && len(o.simWaits) >= o.running-len(o.blocked)-len(o.recvBlocked) {
		min := int64(1<<62 - 1)
		for _, epoch := range o.simWaits {
			if epoch < min {
				min = epoch
			}
		}
		rel := release{epoch: min}
		for tile, epoch := range o.simWaits {
			if epoch != min {
				continue
			}
			rel.procs |= 1 << o.proc(tile)
			delete(o.simWaits, tile)
		}
		out = append(out, rel)
		if !o.repeat {
			break
		}
	}
	return out
}

func (o *oracle) noteTwoSets() {
	for tile := range o.simWaits {
		if o.blocked[tile] || o.recvBlocked[tile] || o.exited[tile] {
			o.twoSets = true
		}
	}
	for tile := range o.blocked {
		if o.recvBlocked[tile] || o.exited[tile] {
			o.twoSets = true
		}
	}
	for tile := range o.recvBlocked {
		if o.exited[tile] {
			o.twoSets = true
		}
	}
}
