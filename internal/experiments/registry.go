package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/config"
)

// Options carries the flag values of cmd/graphite-sweep into an
// experiment run.
type Options struct {
	// Preset scales problem sizes.
	Preset Preset
	// Benchmarks restricts experiments that iterate a benchmark list.
	Benchmarks []string
	// Sizes is the generic integer list flag (line sizes, tile counts,
	// host core counts, machine counts — per experiment).
	Sizes []int
	// Runs is the repetition count of the table3 cells.
	Runs int
	// Parallel bounds the scenario runner's worker pool for experiments
	// that execute host-parallel (0 = host CPUs).
	Parallel int
}

// Experiment is one registered table or figure of the paper.
type Experiment struct {
	// Name is the canonical -exp value.
	Name string
	// Aliases are accepted alternative names (e.g. fig6 for the combined
	// Figure 6 / Table 3 study).
	Aliases []string
	// Summary is one help line.
	Summary string
	// Run regenerates the experiment and prints it to w.
	Run func(w io.Writer, o Options) error
}

// Registry returns every experiment, in the paper's order. The -exp flag
// help, parsing, and "all" iteration all derive from this single list,
// so they cannot disagree.
func Registry() []Experiment {
	return []Experiment{
		{
			Name:    "table1",
			Summary: "target architecture parameters",
			Run: func(w io.Writer, o Options) error {
				Table1(w, config.Default())
				return nil
			},
		},
		{
			Name:    "fig4",
			Summary: "host-core scaling of simulator wall time",
			Run: func(w io.Writer, o Options) error {
				r, err := Fig4(o.Preset, o.Benchmarks, o.Sizes)
				if err != nil {
					return err
				}
				r.Print(w)
				return nil
			},
		},
		{
			Name:    "table2",
			Summary: "simulation slowdown versus native execution",
			Run: func(w io.Writer, o Options) error {
				r, err := Table2(o.Preset, o.Benchmarks)
				if err != nil {
					return err
				}
				r.Print(w)
				return nil
			},
		},
		{
			Name:    "fig5",
			Summary: "large-target scaling across host processes",
			Run: func(w io.Writer, o Options) error {
				r, err := Fig5(o.Preset, o.Sizes)
				if err != nil {
					return err
				}
				r.Print(w)
				return nil
			},
		},
		{
			Name:    "table3",
			Aliases: []string{"fig6"},
			Summary: "synchronization models: performance, error, variability",
			Run: func(w io.Writer, o Options) error {
				r, err := Table3(o.Preset, o.Benchmarks, o.Runs)
				if err != nil {
					return err
				}
				r.Print(w)
				return nil
			},
		},
		{
			Name:    "fig7",
			Summary: "clock skew under the three synchronization models",
			Run: func(w io.Writer, o Options) error {
				r, err := Fig7(o.Preset)
				if err != nil {
					return err
				}
				r.Print(w)
				return nil
			},
		},
		{
			Name:    "fig8",
			Summary: "cache miss breakdown versus line size",
			Run: func(w io.Writer, o Options) error {
				r, err := Fig8(o.Preset, o.Benchmarks, o.Sizes, o.Parallel)
				if err != nil {
					return err
				}
				r.Print(w)
				return nil
			},
		},
		{
			Name:    "fig9",
			Summary: "cache-coherence schemes versus target tile count",
			Run: func(w io.Writer, o Options) error {
				r, err := Fig9(o.Preset, o.Sizes, o.Parallel)
				if err != nil {
					return err
				}
				r.Print(w)
				return nil
			},
		},
	}
}

// Find resolves an experiment by canonical name or alias.
func Find(name string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.Name == name {
			return e, true
		}
		for _, a := range e.Aliases {
			if a == name {
				return e, true
			}
		}
	}
	return Experiment{}, false
}

// Names returns every accepted -exp value (canonical names and aliases),
// in registry order.
func Names() []string {
	var out []string
	for _, e := range Registry() {
		out = append(out, e.Name)
		out = append(out, e.Aliases...)
	}
	return out
}

// FlagUsage renders the -exp help string from the registry.
func FlagUsage() string {
	return strings.Join(append(Names(), "all"), "|")
}

// RunByName executes one experiment (or errors with the accepted list).
func RunByName(name string, w io.Writer, o Options) error {
	e, ok := Find(name)
	if !ok {
		return fmt.Errorf("unknown experiment %q (accepted: %s)", name, FlagUsage())
	}
	return e.Run(w, o)
}
