package mem

// Doner receives request completions without a per-access closure: the
// channel calls RequestDone(now, r) when r's data burst finishes. Hot-path
// submitters implement it on pooled per-access records so a steady-state
// access allocates nothing.
type Doner interface {
	RequestDone(now int64, r *Request)
}

// Request is one 64-B memory access presented to a channel after address
// translation: it names an actual physical location (partition, bank, row)
// rather than an original OS address.
type Request struct {
	Module  Kind  // which partition serves the request
	Bank    int   // bank within the partition's rank
	Row     int64 // row within the bank
	IsWrite bool
	Arrival int64 // cycle the request entered the channel queue

	// Core identifies the requesting program (-1 for requests that belong
	// to the memory controller itself, e.g. Swap-group Table traffic).
	Core int

	// Done, if non-nil, receives the completion of the request's data
	// burst. Submitters implement Doner on a pooled per-access record and
	// bind it once, so an access allocates no closure.
	Done Doner

	// Faulted is set by the channel (before Done fires) when a fault
	// injector failed this burst: the timing was paid but the data is
	// unusable, and the submitter decides whether to retry.
	Faulted bool
}

// EventCounts tallies the channel activity that the energy model and the
// figure-of-merit calculations consume.
type EventCounts struct {
	Reads      [2]int64 // 64-B read bursts served, indexed by Kind
	Writes     [2]int64 // 64-B write bursts served, indexed by Kind
	Activates  [2]int64 // row activations, indexed by Kind
	Precharges [2]int64
	RowHits    [2]int64 // column accesses that hit the open row
	RowMisses  [2]int64
	Refreshes  [2]int64 // rank refresh windows elapsed (M2 has none)
	Swaps      int64    // block swaps executed
	SwapBusy   int64    // cycles the channel spent blocked by swaps

	// Swap component traffic (2-KB block reads/writes expressed in 64-B
	// bursts) for energy accounting; also included in Reads/Writes? No:
	// kept separate so demand traffic statistics stay clean.
	SwapReads  [2]int64
	SwapWrites [2]int64
}

// Add accumulates other into c.
func (c *EventCounts) Add(other EventCounts) {
	for k := 0; k < 2; k++ {
		c.Reads[k] += other.Reads[k]
		c.Writes[k] += other.Writes[k]
		c.Activates[k] += other.Activates[k]
		c.Precharges[k] += other.Precharges[k]
		c.RowHits[k] += other.RowHits[k]
		c.RowMisses[k] += other.RowMisses[k]
		c.Refreshes[k] += other.Refreshes[k]
		c.SwapReads[k] += other.SwapReads[k]
		c.SwapWrites[k] += other.SwapWrites[k]
	}
	c.Swaps += other.Swaps
	c.SwapBusy += other.SwapBusy
}

// DemandAccesses returns the total number of demand (non-swap) bursts.
func (c *EventCounts) DemandAccesses() int64 {
	return c.Reads[M1] + c.Reads[M2] + c.Writes[M1] + c.Writes[M2]
}
