package cache

import (
	"testing"
	"testing/quick"
)

func small() *Cache {
	return New(Config{Sets: 4, Ways: 2, LineBytes: 64})
}

func TestHitMiss(t *testing.T) {
	c := small()
	if hit, _, _ := c.Access(0, false); hit {
		t.Error("first access should miss")
	}
	if hit, _, _ := c.Access(0, false); !hit {
		t.Error("second access should hit")
	}
	if hit, _, _ := c.Access(63, false); !hit {
		t.Error("same line should hit")
	}
	if hit, _, _ := c.Access(64, false); hit {
		t.Error("next line should miss")
	}
	if c.Hits != 2 || c.Misses != 2 {
		t.Errorf("hits=%d misses=%d", c.Hits, c.Misses)
	}
	if c.HitRate() != 0.5 {
		t.Errorf("hit rate %v", c.HitRate())
	}
}

func TestLRUEviction(t *testing.T) {
	c := small()                             // 4 sets: lines 64 bytes; same set every 4*64=256 bytes
	c.Access(0, false)                       // set 0, tag 0
	c.Access(256, false)                     // set 0, tag 1 — set full
	c.Access(0, false)                       // touch tag 0 (now MRU)
	hit, ev, evicted := c.Access(512, false) // set 0, tag 2 — evicts LRU (tag 1)
	if hit || !evicted {
		t.Fatal("expected evicting miss")
	}
	if ev.Addr != 256 {
		t.Errorf("evicted %d, want 256 (LRU)", ev.Addr)
	}
	if !c.Probe(0) || c.Probe(256) || !c.Probe(512) {
		t.Error("post-eviction contents wrong")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := small()
	c.Access(0, true) // dirty line
	c.Access(256, false)
	_, ev, evicted := c.Access(512, false) // evicts addr 0, dirty
	if !evicted || !ev.Dirty || ev.Addr != 0 {
		t.Errorf("eviction = %+v %v", ev, evicted)
	}
	if c.Writebacks != 1 {
		t.Errorf("writebacks = %d", c.Writebacks)
	}
	// Clean eviction must not count.
	c2 := small()
	c2.Access(0, false)
	c2.Access(256, false)
	c2.Access(512, false)
	if c2.Writebacks != 0 {
		t.Error("clean eviction should not write back")
	}
}

func TestWriteHitMarksDirty(t *testing.T) {
	c := small()
	c.Access(0, false)
	c.Access(0, true) // write hit dirties the line
	c.Access(256, false)
	_, ev, _ := c.Access(512, false)
	if !ev.Dirty {
		t.Error("write-hit line should be dirty on eviction")
	}
}

func TestConfigForCapacity(t *testing.T) {
	cfg := ConfigForCapacity(256<<10, 16)
	c := New(cfg)
	if c.Capacity() != 256<<10 {
		t.Errorf("capacity = %d", c.Capacity())
	}
	if cfg.Ways != 16 || cfg.LineBytes != 64 {
		t.Errorf("cfg = %+v", cfg)
	}
	// Tiny capacity still yields at least one set.
	if ConfigForCapacity(1, 16).Sets != 1 {
		t.Error("minimum one set")
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	for _, cfg := range []Config{{}, {Sets: 4, Ways: MaxWays + 1, LineBytes: 64}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v): expected panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestResidencyBoundProperty(t *testing.T) {
	// However many addresses are accessed, at most Sets*Ways stay resident.
	f := func(addrs []uint16) bool {
		c := small()
		for _, a := range addrs {
			c.Access(int64(a), a%3 == 0)
		}
		resident := 0
		seen := map[int64]bool{}
		for _, a := range addrs {
			line := (int64(a) / 64) * 64
			if seen[line] {
				continue
			}
			seen[line] = true
			if c.Probe(int64(a)) {
				resident++
			}
		}
		return resident <= 4*2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProbeDoesNotTouchLRU(t *testing.T) {
	c := small()
	c.Access(0, false)
	c.Access(256, false)
	// Probing tag 0 must NOT refresh it; the next allocation still evicts it.
	c.Probe(0)
	_, ev, _ := c.Access(512, false)
	if ev.Addr != 0 {
		t.Errorf("Probe disturbed LRU: evicted %d, want 0", ev.Addr)
	}
}
