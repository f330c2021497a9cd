package event

import "testing"

func TestQueueResetRetainsCapacity(t *testing.T) {
	q := &Queue{}
	h := call(func(now int64, i int64, p any) {})
	pattern := func() {
		for i := int64(0); i < 3000; i++ {
			q.Schedule(i*7, h, 0, nil)
		}
		for q.Step() {
		}
	}
	pattern()
	q.Reset()
	n := testing.AllocsPerRun(5, func() {
		pattern()
		q.Reset()
	})
	if n > 10 {
		t.Fatalf("reused queue allocated %v times per pattern", n)
	}
}
