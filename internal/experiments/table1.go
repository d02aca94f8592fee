package experiments

import (
	"io"

	"repro/internal/config"
)

// Table1 prints the target architecture parameters (paper Table 1) for a
// configuration.
func Table1(w io.Writer, cfg config.Config) {
	fprintf(w, "Table 1: target architecture parameters\n")
	fprintf(w, "%-22s %v GHz\n", "Clock frequency", float64(cfg.ClockHz)/1e9)
	cache := func(name string, c config.CacheConfig) {
		if !c.Enabled {
			fprintf(w, "%-22s disabled\n", name)
			return
		}
		fprintf(w, "%-22s private, %d KB, %d B lines, %d-way, LRU, %d-cycle hit\n",
			name, c.Size>>10, c.LineSize, c.Assoc, c.HitLatency)
	}
	cache("L1 instruction cache", cfg.L1I)
	cache("L1 data cache", cfg.L1D)
	cache("L2 cache", cfg.L2)
	switch cfg.Coherence.Kind {
	case config.FullMap:
		fprintf(w, "%-22s full-map directory MSI\n", "Cache coherence")
	case config.LimitedNB:
		fprintf(w, "%-22s Dir%dNB limited directory MSI\n", "Cache coherence", cfg.Coherence.DirPointers)
	case config.LimitLESS:
		fprintf(w, "%-22s LimitLESS(%d) MSI, %d-cycle trap\n", "Cache coherence",
			cfg.Coherence.DirPointers, cfg.Coherence.TrapLatency)
	}
	fprintf(w, "%-22s %.2f GB/s total, one controller per tile (%d-cycle access)\n",
		"DRAM", cfg.DRAM.TotalBandwidth, cfg.DRAM.AccessLatency)
	fprintf(w, "%-22s app=%s mem=%s sys=%s\n", "Interconnect",
		cfg.AppNet.Kind.String(), cfg.MemNet.Kind.String(), cfg.SysNet.Kind.String())
	fprintf(w, "%-22s %s\n", "Synchronization", cfg.Sync.Model.String())
	fprintf(w, "%-22s %d tiles across %d host processes\n", "Simulation", cfg.Tiles, cfg.Processes)
}
