package lint

import (
	"go/ast"
	"go/types"
)

// wallclockFuncs are the time-package entry points that observe or
// depend on the host's wall clock. Any of them inside the determinism
// boundary makes simulated results a function of host speed — the
// failure class the byte-identical-checksum CI gates exist to catch.
// time.Sleep is included: sleeping is wall-clock *pacing* (no model
// needs it: LaxP2P holds in simulated time), never a result input.
var wallclockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true,
	"Tick": true, "NewTimer": true, "NewTicker": true, "AfterFunc": true,
	"Sleep": true,
}

// randConstructors are the math/rand entry points that build an
// explicitly seeded, locally owned generator — the deterministic
// pattern the models are supposed to use. Everything else at package
// level (Intn, Float64, Shuffle, …) draws from the process-global
// source, whose state depends on every other draw in the process.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	// math/rand/v2 spellings.
	"NewPCG": true, "NewChaCha8": true,
}

// DetPure builds the detpure analyzer: inside the determinism boundary
// (Pass.InScope), wall-clock reads, global math/rand state, and
// map-order-dependent iteration are findings unless annotated.
//
//	//graphite:wallclock <why>  on the enclosing function or the line
//	//graphite:maporder <why>   on the range statement or enclosing function
func DetPure(s *Suite) *Analyzer {
	a := &Analyzer{
		Name: "detpure",
		Doc:  "forbid wall-clock, global math/rand, and unordered map iteration in simulation packages",
	}
	a.Run = func(pass *Pass) {
		if !pass.InScope {
			return
		}
		for _, f := range pass.Files {
			file := f
			walkWithStack(file, func(n ast.Node, stack []ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					pass.checkTimeRandRef(file, n, stack)
				case *ast.RangeStmt:
					pass.checkMapRange(file, n, stack)
				}
				return true
			})
		}
	}
	return a
}

// checkTimeRandRef flags references (calls or function values — an
// un-annotated `nowFn: time.Now` is just as impure) to wall-clock and
// global-rand functions.
func (p *Pass) checkTimeRandRef(file *ast.File, sel *ast.SelectorExpr, stack []ast.Node) {
	obj := p.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return
	}
	fn, isFunc := obj.(*types.Func)
	if isFunc && fn.Type().(*types.Signature).Recv() != nil {
		// Methods are pure relative to their receiver: time.Time.After
		// compares two timestamps the caller already holds, and a
		// (*rand.Rand).Intn draw is deterministic given the seed that
		// built the generator. Only package-level entry points reach
		// host state.
		return
	}
	doc := enclosingFuncDoc(stack)
	switch obj.Pkg().Path() {
	case "time":
		if wallclockFuncs[obj.Name()] {
			p.reportUnlessSuppressed(file, doc, sel.Pos(), "wallclock",
				"time.%s observes the host wall clock inside a simulation package; inject a nowFn or annotate //graphite:wallclock <why>", obj.Name())
		}
	case "math/rand", "math/rand/v2":
		if !isFunc {
			return // types (rand.Rand, rand.Source) are fine
		}
		if randConstructors[obj.Name()] {
			return // building a locally seeded generator is the approved pattern
		}
		p.reportUnlessSuppressed(file, doc, sel.Pos(), "wallclock",
			"rand.%s draws from the process-global generator inside a simulation package; use a per-model seeded rand.New/splitmix64 or annotate //graphite:wallclock <why>", obj.Name())
	}
}

// checkMapRange flags `for … range m` where m is a map: Go randomizes
// the order, so any order-sensitive use makes results host-run
// dependent. Order-insensitive iterations (commutative accumulation,
// set draining into a sort) carry //graphite:maporder <why>.
func (p *Pass) checkMapRange(file *ast.File, rng *ast.RangeStmt, stack []ast.Node) {
	tv, ok := p.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	doc := enclosingFuncDoc(stack)
	p.reportUnlessSuppressed(file, doc, rng.Pos(), "maporder",
		"map iteration order is randomized; prove it cannot affect simulated results with //graphite:maporder <why> (or iterate a sorted slice)")
}
