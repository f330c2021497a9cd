package trace

import (
	"bytes"
	"testing"
)

// FuzzReadTrace feeds arbitrary bytes to the binary trace decoder. The
// decoder must never panic or allocate unboundedly on corrupt input, and
// every trace it does accept must satisfy the Replayer's invariants (the
// simulator consumes VAddr and Gap without further checks).
func FuzzReadTrace(f *testing.F) {
	// Seed 1: a genuine small capture, so the fuzzer starts from a valid
	// encoding and mutates inward.
	g, err := NewGenerator(Params{Name: "seed", Footprint: 8192, GapMean: 10, WriteFrac: 0.3, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if err := WriteTrace(&valid, g, 32); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())

	// Seeds 2-6: the interesting corruption classes — truncations, a bad
	// magic, and a header whose count promises records that never arrive
	// (the giant-allocation hazard).
	f.Add([]byte{})
	f.Add([]byte("PFTR"))
	f.Add([]byte("XXXXX"))
	f.Add(valid.Bytes()[:len(valid.Bytes())/2])
	f.Add(append([]byte("PFTR1"),
		0x00,             // name length 0
		0x80, 0x80, 0x01, // footprint
		0x0a,                                                       // gap mean
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, // count = 2^63+
	))

	f.Fuzz(func(t *testing.T, data []byte) {
		rp, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return // rejected: the only requirement is not panicking
		}
		if rp.Len() == 0 {
			t.Fatal("decoder accepted an empty trace")
		}
		if rp.Footprint() < 0 {
			t.Fatalf("negative footprint %d", rp.Footprint())
		}
		if rp.Params().GapMean < 0 {
			t.Fatalf("negative mean gap %d", rp.Params().GapMean)
		}
		for i := 0; i < rp.Len(); i++ {
			r := rp.Next()
			if r.VAddr < 0 {
				t.Fatalf("record %d: negative VAddr %d", i, r.VAddr)
			}
			if r.Gap < 0 {
				t.Fatalf("record %d: negative gap %d", i, r.Gap)
			}
		}
	})
}

// FuzzRoundTrip checks that whatever ReadTrace accepts survives a
// write-read cycle unchanged — the property professtrace relies on when
// re-capturing an inspected trace.
func FuzzRoundTrip(f *testing.F) {
	g, err := NewGenerator(Params{Name: "rt", Footprint: 8192, GapMean: 7, WriteFrac: 0.5, DepFrac: 0.2, Seed: 3})
	if err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if err := WriteTrace(&valid, g, 16); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		rp, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteTrace(&out, rp, int64(rp.Len())); err != nil {
			t.Fatalf("re-encoding an accepted trace: %v", err)
		}
		rp2, err := ReadTrace(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding a re-encoded trace: %v", err)
		}
		if rp2.Len() != rp.Len() {
			t.Fatalf("round trip changed length: %d != %d", rp2.Len(), rp.Len())
		}
		rp.Reset()
		for i := 0; i < rp.Len(); i++ {
			a, b := rp.Next(), rp2.Next()
			if a != b {
				t.Fatalf("record %d changed: %+v != %+v", i, a, b)
			}
		}
	})
}
