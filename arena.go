// Arena reuse: every simulation that reaches runSimUncached executes
// through a sim.SystemArena, which caches a constructed machine per
// structural shape and resets it in place between runs instead of
// rebuilding it (see internal/sim/arena.go). Sweep workers each own a
// private arena threaded through the context; every other caller borrows
// one from a process-wide pool. Reuse is on by default and byte-identical
// to fresh construction — disable it with SetArenaReuse(false)
// (professbench's -noarena flag) when debugging scheme state, so every
// run starts from a machine the debugger can watch being built.

package profess

import (
	"context"
	"sync"
	"sync/atomic"

	"profess/internal/sim"
)

// arenaOff is the global kill switch, stored inverted so the zero value
// means "reuse on".
var arenaOff atomic.Bool

// SetArenaReuse toggles simulation-state arena reuse process-wide.
// Reuse is enabled by default; disabling it forces every simulation to
// construct a fresh machine (the pre-arena behaviour).
func SetArenaReuse(on bool) { arenaOff.Store(!on) }

// ArenaReuse reports whether arena reuse is enabled.
func ArenaReuse() bool { return !arenaOff.Load() }

// arenaCtxKey carries a worker-owned arena through a context.
type arenaCtxKey struct{}

// withWorkerArena hands the context its own private simulation-state
// arena. Sweep workers call this once per goroutine, so cells executed by
// one worker share a machine without any cross-worker locking. A no-op
// when reuse is disabled.
func withWorkerArena(ctx context.Context) context.Context {
	if !ArenaReuse() {
		return ctx
	}
	return context.WithValue(ctx, arenaCtxKey{}, new(sim.SystemArena))
}

// arenaPool serves callers outside a sweep (RunProgram, par.For
// drivers): each concurrent simulation checks out an exclusive arena and
// returns it afterwards, so repeated same-shape runs on one goroutine
// still reuse a machine while the GC remains free to reclaim idle ones.
var arenaPool = sync.Pool{New: func() any { return new(sim.SystemArena) }}

// runArena executes one simulation through the calling context's arena,
// a pooled one, or — with reuse disabled — a fresh machine.
func runArena(ctx context.Context, cfg Config, specs []ProgramSpec, scheme Scheme) (*Result, error) {
	if !ArenaReuse() {
		return sim.RunContext(ctx, cfg, specs, scheme)
	}
	if a, ok := ctx.Value(arenaCtxKey{}).(*sim.SystemArena); ok {
		return a.RunContext(ctx, cfg, specs, scheme)
	}
	a := arenaPool.Get().(*sim.SystemArena)
	defer arenaPool.Put(a)
	return a.RunContext(ctx, cfg, specs, scheme)
}
