// Arena reuse: every simulation that reaches runSimUncached executes
// through a sim.SystemArena, which caches a constructed machine per
// structural shape and resets it in place between runs instead of
// rebuilding it (see internal/sim/arena.go). Sweep workers each own a
// private arena threaded through the context; every other caller borrows
// one from a process-wide pool. Reuse is byte-identical to fresh
// construction: TestArenaVsFreshByteIdentical and TestArenaClusteredReuse
// (internal/sim) compare the two.

package profess

import (
	"context"
	"sync"

	"profess/internal/sim"
)

// arenaCtxKey carries a worker-owned arena through a context.
type arenaCtxKey struct{}

// withWorkerArena hands the context its own private simulation-state
// arena. Sweep workers call this once per goroutine, so cells executed by
// one worker share a machine without any cross-worker locking.
func withWorkerArena(ctx context.Context) context.Context {
	return context.WithValue(ctx, arenaCtxKey{}, new(sim.SystemArena))
}

// arenaPool serves callers outside a sweep (RunProgram, par.For
// drivers): each concurrent simulation checks out an exclusive arena and
// returns it afterwards, so repeated same-shape runs on one goroutine
// still reuse a machine while the GC remains free to reclaim idle ones.
var arenaPool = sync.Pool{New: func() any { return new(sim.SystemArena) }}

// runArena executes one simulation through the calling context's arena
// or a pooled one.
func runArena(ctx context.Context, cfg Config, specs []ProgramSpec, scheme Scheme) (*Result, error) {
	if a, ok := ctx.Value(arenaCtxKey{}).(*sim.SystemArena); ok {
		return a.RunContext(ctx, cfg, specs, scheme)
	}
	a := arenaPool.Get().(*sim.SystemArena)
	defer arenaPool.Put(a)
	return a.RunContext(ctx, cfg, specs, scheme)
}
