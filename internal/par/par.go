// Package par runs independent work items on a bounded pool of
// goroutines. The experiment drivers fan cells out with it, and the
// clustered simulator runs its clusters with it.
package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// For runs fn(i) for i in [0, n) on at most workers goroutines (0 or less
// = GOMAXPROCS); a nil context is the background context. One item
// failing (or panicking — panics are recovered into errors carrying the
// stack) does not abandon the rest: every item is attempted unless the
// context is cancelled, and all failures come back joined in index order,
// so callers keep the surviving results. For returns after every item
// has finished.
func For(ctx context.Context, n, workers int, fn func(i int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	call := func(i int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("item %d panicked: %v\n%s", i, r, debug.Stack())
			}
		}()
		return fn(i)
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				errs[i] = err
				break
			}
			errs[i] = call(i)
		}
		return errors.Join(errs...)
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		next int
	)
	// Workers claim contiguous index batches rather than single items: one
	// lock round per batch cuts handout overhead on sweeps with many cheap
	// cells, while ~4 batches per worker keeps enough slack for the tail to
	// balance when cell costs are skewed.
	batch := n / (workers * 4)
	if batch < 1 {
		batch = 1
	}
	take := func() (int, int) {
		mu.Lock()
		defer mu.Unlock()
		if next >= n {
			return -1, -1
		}
		lo := next
		hi := lo + batch
		if hi > n {
			hi = n
		}
		next = hi
		return lo, hi
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo, hi := take()
				if lo < 0 {
					return
				}
				for i := lo; i < hi; i++ {
					if ctx.Err() != nil {
						return
					}
					errs[i] = call(i)
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}
