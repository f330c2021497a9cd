package cache

import (
	"math/rand"
	"testing"
)

// stampRef is the per-way stamp LRU that Recency replaced, kept as the
// reference of TestAccessMatchesStampReference: every way carries the
// clock value of its last access, and a miss fills the first empty way or
// else evicts the way with the oldest stamp.
type stampRef struct {
	cfg   Config
	tag   []int64 // set-major, invalidTag = empty
	lru   []int64 // larger = more recent
	dirty []bool
	clock int64

	Hits, Misses, Writebacks int64
}

func newStampRef(cfg Config) *stampRef {
	n := cfg.Sets * cfg.Ways
	r := &stampRef{cfg: cfg, tag: make([]int64, n), lru: make([]int64, n), dirty: make([]bool, n)}
	r.Reset()
	return r
}

func (r *stampRef) Reset() {
	for i := range r.tag {
		r.tag[i], r.lru[i], r.dirty[i] = invalidTag, 0, false
	}
	r.clock = 0
	r.Hits, r.Misses, r.Writebacks = 0, 0, 0
}

func (r *stampRef) index(addr int64) (base int, set int, tag int64) {
	line := addr / r.cfg.LineBytes
	set = int(line % int64(r.cfg.Sets))
	return set * r.cfg.Ways, set, line / int64(r.cfg.Sets)
}

func (r *stampRef) Access(addr int64, write bool) (bool, Eviction, bool) {
	base, set, tag := r.index(addr)
	ways := base + r.cfg.Ways
	r.clock++
	for i := base; i < ways; i++ {
		if r.tag[i] == tag {
			r.lru[i] = r.clock
			r.dirty[i] = r.dirty[i] || write
			r.Hits++
			return true, Eviction{}, false
		}
	}
	r.Misses++
	victim := -1
	for i := base; i < ways && victim < 0; i++ {
		if r.tag[i] == invalidTag {
			victim = i
		}
	}
	var ev Eviction
	evicted := victim < 0
	if evicted {
		victim = base
		for i := base + 1; i < ways; i++ {
			if r.lru[i] < r.lru[victim] {
				victim = i
			}
		}
		ev = Eviction{Addr: (r.tag[victim]*int64(r.cfg.Sets) + int64(set)) * r.cfg.LineBytes, Dirty: r.dirty[victim]}
		if ev.Dirty {
			r.Writebacks++
		}
	}
	r.tag[victim], r.lru[victim], r.dirty[victim] = tag, r.clock, write
	return false, ev, evicted
}

func (r *stampRef) Probe(addr int64) bool {
	base, _, tag := r.index(addr)
	for i := base; i < base+r.cfg.Ways; i++ {
		if r.tag[i] == tag {
			return true
		}
	}
	return false
}

// TestAccessMatchesStampReference drives the recency-word cache and the
// stamp reference with one seeded sequence of accesses and resets, over
// 1-, 2-, 8- and 16-way sets and a power-of-two and a non-power-of-two
// set count. Every return value, every counter and every way's tag and
// dirty bit must agree after each operation: the way a line lands in is
// invisible to callers, so only the line arrays show a fill that took
// the wrong empty way or a reset that kept a stale order.
func TestAccessMatchesStampReference(t *testing.T) {
	for _, ways := range []int{1, 2, 8, 16} {
		for _, sets := range []int{8, 6} {
			cfg := Config{Sets: sets, Ways: ways, LineBytes: 64}
			rng := rand.New(rand.NewSource(int64(100*ways + sets)))
			c, ref := New(cfg), newStampRef(cfg)
			// A working set of twice the capacity: about half the
			// accesses hit, at every depth of the order, and most misses
			// evict.
			lines := int64(2 * sets * ways)
			for op := 0; op < 20000; op++ {
				if rng.Intn(1500) == 0 {
					c.Reset()
					ref.Reset()
					continue
				}
				addr := rng.Int63n(lines)*cfg.LineBytes + rng.Int63n(cfg.LineBytes)
				write := rng.Intn(4) == 0
				hit, ev, evicted := c.Access(addr, write)
				wHit, wEv, wEvicted := ref.Access(addr, write)
				if hit != wHit || ev != wEv || evicted != wEvicted {
					t.Fatalf("%d sets x %d ways, op %d: Access(%d, %v) = %v %+v %v, reference %v %+v %v",
						sets, ways, op, addr, write, hit, ev, evicted, wHit, wEv, wEvicted)
				}
				if probe := rng.Int63n(lines) * cfg.LineBytes; c.Probe(probe) != ref.Probe(probe) {
					t.Fatalf("%d sets x %d ways, op %d: Probe(%d) = %v, reference %v",
						sets, ways, op, probe, c.Probe(probe), ref.Probe(probe))
				}
				if c.Hits != ref.Hits || c.Misses != ref.Misses || c.Writebacks != ref.Writebacks {
					t.Fatalf("%d sets x %d ways, op %d: counters %d/%d/%d, reference %d/%d/%d",
						sets, ways, op, c.Hits, c.Misses, c.Writebacks, ref.Hits, ref.Misses, ref.Writebacks)
				}
				for i, tag := range c.tags {
					dirty := c.sets[i/ways].dirty&(1<<uint(i%ways)) != 0
					if tag != ref.tag[i] || (tag != invalidTag && dirty != ref.dirty[i]) {
						t.Fatalf("%d sets x %d ways, op %d: way %d holds tag %d dirty %v, reference %d %v",
							sets, ways, op, i, tag, dirty, ref.tag[i], ref.dirty[i])
					}
				}
			}
		}
	}
}
