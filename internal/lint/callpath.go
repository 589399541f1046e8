package lint

// CallPathCheck escalates the wallclock, unseededrand, and rawconc
// conventions from direct-call detection to transitive reachability over
// the module call graph. The syntactic checks see `time.Now()` written
// inside a sim package; this one sees a sim-facing function that reaches
// `time.Now` through a host-side helper two packages away, and reports
// the full call chain.
//
// Blame lands on the boundary: the in-scope function whose next hop
// leaves the scope. Callers further up are not re-reported — fixing the
// boundary fixes them — and direct calls (chain length 1 to a forbidden
// stdlib function) are left to the syntactic checks that own them.
var CallPathCheck = &Check{
	Name:  "callpath",
	Doc:   "forbid transitively reaching wall-clock, global rand, or host concurrency from sim-facing code (reports the call chain)",
	Scope: "sim packages (rawconc half: app packages)",
	Applies: func(pkgPath string) bool {
		return inScope(pkgPath, simScopes)
	},
	RunModule: runCallPath,
}

func runCallPath(p *ModulePass) {
	g := p.Graph

	// nodeScope reports whether a node's declaring package is in scope;
	// literals take their lexical package.
	nodeIn := func(n *CGNode, scopes []string) bool {
		return n.Pkg != nil && inScope(n.Pkg.Path, scopes)
	}

	// report walks the in-scope nodes and flags boundary crossings:
	// node N reaches a target and its next hop is not an in-scope node
	// that also reaches (which would be blamed instead).
	report := func(reach map[*CGNode]*ReachStep, scopes []string, direct bool, what string) {
		for _, n := range g.Nodes() {
			step := reach[n]
			if step == nil || step.Next == nil || !nodeIn(n, scopes) {
				continue
			}
			if !direct && step.Dist == 1 && step.Next.External() {
				continue // a direct forbidden call; the syntactic check owns it
			}
			if nodeIn(step.Next, scopes) && reach[step.Next] != nil && reach[step.Next].Next != nil {
				continue // blame the callee, the deeper boundary
			}
			p.Reportf(step.Pos, "%s reaches %s (%s): %s", n.Name(), what, Chain(n, reach), remedyFor(what))
		}
	}

	// Wall clock: the forbidden time entry points, reached from sim scope.
	wallReach := g.Reach(func(n *CGNode) bool {
		return n.External() && n.Obj.Pkg() != nil && n.Obj.Pkg().Path() == "time" &&
			wallclockForbidden[n.Obj.Name()] != ""
	}, nil)
	report(wallReach, simScopes, false, "the host clock")

	// Global rand: math/rand package-level draws, reached from sim scope.
	randReach := g.Reach(func(n *CGNode) bool {
		if !n.External() || n.Obj.Pkg() == nil {
			return false
		}
		path := n.Obj.Pkg().Path()
		return (path == "math/rand" || path == "math/rand/v2") && randGlobals[n.Obj.Name()]
	}, nil)
	report(randReach, simScopes, false, "the global rand generator")

	// Raw concurrency: module functions outside every sim scope that use
	// host concurrency, reached from app scope. The engine-owned packages
	// (sim, mem, mesh, ...) are sanctioned concurrency and act as
	// barriers: an app reaching the engine's thread handoff through the
	// scheduler API is the design, not a leak.
	sanctioned := func(n *CGNode) bool {
		return nodeIn(n, simScopes) && !nodeIn(n, appScopes)
	}
	concReach := g.Reach(func(n *CGNode) bool {
		return n.Pkg != nil && !inScope(n.Pkg.Path, simScopes) && len(n.Conc) > 0
	}, sanctioned)
	report(concReach, appScopes, true, "host concurrency")
}

func remedyFor(what string) string {
	switch what {
	case "the host clock":
		return "simulator-facing code may only observe simulated cycles (sim.Engine.Now)"
	case "the global rand generator":
		return "randomness must flow from a RunConfig seed (rand.New(rand.NewSource(seed)))"
	default:
		return "simulated-application code must use sim.Thread/psync so host scheduling cannot leak into results"
	}
}
