package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"profess"
	"profess/internal/sim"
	"profess/internal/trace"
)

// variants is the number of input variants. The seed selects one, seed
// mod variants, so every seed has committed references: variant 0 (the
// default seed, 0) is the simulator's own seeding — exactly the cell
// profess.RunMix runs — and variant 1 (the held-out seed, 1) salts the
// machine seed and every program's generator seed.
const variants = 2

func variantOf(seed int64) int {
	v := int(seed % variants)
	if v < 0 {
		v += variants
	}
	return v
}

// saltOf is the seed salt of an input variant: 0 for the default
// variant, otherwise a splitmix64-finalised variant index.
func saltOf(variant int) uint64 {
	if variant == 0 {
		return 0
	}
	s := uint64(variant) + 0x9E3779B97F4A7C15
	s = (s ^ (s >> 30)) * 0xBF58476D1CE4E5B9
	s = (s ^ (s >> 27)) * 0x94D049BB133111EB
	return s ^ (s >> 31)
}

// salt applies an input variant to a configuration (when non-nil) and
// its specs.
func salt(variant int, cfg *profess.Config, specs []profess.ProgramSpec) {
	if cfg != nil {
		cfg.Seed ^= saltOf(variant)
	}
	for i := range specs {
		specs[i].Params.Seed ^= saltOf(variant)
	}
}

// outcome is one repetition of a workload.
type outcome struct {
	wall  time.Duration // host time of the timed calls
	instr int64         // simulated instructions, repeats included
	cells int           // distinct simulation cells completed

	ops, failed int64
	problems    []string

	// digest canonically summarises every simulated result, so the traced
	// pass can be checked against the untraced one.
	digest  string
	results []*profess.Result

	// Traced passes only: boundary tallies.
	src, pol boundary

	// sampled only: per-program |IPC error| against full fidelity.
	ipcErr []float64

	// sweep only.
	execute, render time.Duration
	exec            *profess.ExecReport
	cellSpans       []cellSpan
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// workload is one named benchmark workload.
type workload interface {
	// setUp is one set-up trial: configurations and specs (and the sweep
	// plan), then the first machine construction.
	setUp(ctx context.Context, tr *tracer) error
	// warmUp reports whether a run starts with an untimed warm-up
	// repetition.
	warmUp() bool
	// rep runs one repetition and checks it against the references; a
	// tracer turns the boundary wrappers and spans on.
	rep(ctx context.Context, tr *tracer) (*outcome, error)
	// record adds this variant's references to rf.
	record(ctx context.Context, rf *refFile) error
}

func newWorkload(name string, variant int, refs *refFile) (workload, error) {
	switch name {
	case "cell":
		return &cellWorkload{variant: variant, refs: refs}, nil
	case "sampled":
		return &sampledWorkload{variant: variant, refs: refs}, nil
	case "fleet16":
		return &fleetWorkload{variant: variant, refs: refs}, nil
	case "sweep":
		return &sweepWorkload{refs: refs}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want cell, sweep, sampled or fleet16)", name)
}

// programInstructions sums the simulated instructions of a result.
func programInstructions(res *profess.Result) int64 {
	var n int64
	for _, c := range res.PerCore {
		n += c.Instructions
	}
	return n
}

// checkRun compares one result with its reference, failing the outcome
// on an error, a timeout or any difference.
func checkRun(o *outcome, refs *refFile, key string, res *profess.Result, err error) {
	o.ops++
	switch {
	case err != nil:
		o.fail("%s: %v", key, err)
	case res.TimedOut:
		o.fail("%s: timed out", key)
	default:
		ref, ok := refs.Runs[key]
		if !ok {
			o.fail("%s: no reference", key)
		} else if !sameRun(ref, res) {
			o.fail("%s: result differs from the reference", key)
		}
	}
}

// wrapSources gives every spec a counting reference stream built from its
// generator parameters: the same stream the simulator would build itself
// for a single-threaded spec.
func wrapSources(specs []profess.ProgramSpec) ([]profess.ProgramSpec, []*countingSource, error) {
	out := append([]profess.ProgramSpec(nil), specs...)
	srcs := make([]*countingSource, len(specs))
	for i := range out {
		g, err := trace.NewGenerator(out[i].Params)
		if err != nil {
			return nil, nil, err
		}
		srcs[i] = &countingSource{src: g}
		out[i].Source = srcs[i]
	}
	return out, srcs, nil
}

// buildSystem constructs one machine under a "sim.NewSystem" span.
func buildSystem(tr *tracer, cfg profess.Config, specs []profess.ProgramSpec, policy profess.Policy) (*sim.System, error) {
	id := tr.begin("sim.NewSystem")
	defer tr.end(id)
	return sim.NewSystem(cfg, specs, policy)
}

// cellWorkload is ROADMAP's representative cell: w09 under ProFess on the
// quad-core machine at full fidelity, run cache off, arena reuse on.
type cellWorkload struct {
	variant int
	refs    *refFile
	cfg     profess.Config
	specs   []profess.ProgramSpec
}

const (
	cellMix   = "w09"
	cellInstr = 2_000_000
)

// workloadSpecs builds a Table 10 mix's specs with the simulator's own
// per-instance generator seeds.
func workloadSpecs(mix string, scale float64) ([]profess.ProgramSpec, error) {
	for _, w := range profess.Workloads() {
		if w.Name == mix {
			return sim.SpecsForWorkload(w, scale)
		}
	}
	return nil, fmt.Errorf("unknown mix %s", mix)
}

func (w *cellWorkload) warmUp() bool { return true }

func (w *cellWorkload) setUp(ctx context.Context, tr *tracer) error {
	cfg := profess.MultiCoreConfig(profess.PaperScale)
	cfg.Instructions = cellInstr
	specs, err := workloadSpecs(cellMix, cfg.Scale)
	if err != nil {
		return err
	}
	salt(w.variant, &cfg, specs)
	w.cfg, w.specs = cfg, specs
	policy, err := sim.NewPolicy(profess.SchemeProFess, len(specs), cfg.Scale)
	if err != nil {
		return err
	}
	_, err = buildSystem(tr, cfg, specs, policy)
	return err
}

func (w *cellWorkload) rep(ctx context.Context, tr *tracer) (*outcome, error) {
	o := &outcome{cells: 1}
	res, err := runCell(ctx, tr, w.cfg, w.specs, o)
	checkRun(o, w.refs, refKey(w.variant, cellMix, profess.SchemeProFess), res, err)
	if err == nil {
		o.instr = programInstructions(res)
		o.results = []*profess.Result{res}
		o.digest = digest(res)
	}
	return o, nil
}

func (w *cellWorkload) record(ctx context.Context, rf *refFile) error {
	res, err := profess.RunSpecsContext(ctx, w.specs, profess.SchemeProFess, w.cfg)
	if err != nil {
		return err
	}
	rf.Runs[refKey(w.variant, cellMix, profess.SchemeProFess)] = summarize(res)
	return nil
}

// runCell runs one quad-core ProFess cell. Untraced it goes through the
// public run funnel (run cache off, arena reuse on); traced it builds the
// machine itself so both boundary wrappers can be plugged in, which the
// arena-backed funnel does not allow for policies.
func runCell(ctx context.Context, tr *tracer, cfg profess.Config, specs []profess.ProgramSpec, o *outcome) (*profess.Result, error) {
	if tr == nil {
		start := time.Now()
		res, err := profess.RunSpecsContext(ctx, specs, profess.SchemeProFess, cfg)
		o.wall += time.Since(start)
		return res, err
	}
	start := time.Now()
	var srcs []*countingSource
	if !cfg.SamplingOn() {
		// The sampled tier rejects replay Sources, so only full-fidelity
		// runs count the reference stream.
		var err error
		if specs, srcs, err = wrapSources(specs); err != nil {
			return nil, err
		}
	}
	inner, err := sim.NewPolicy(profess.SchemeProFess, len(specs), cfg.Scale)
	if err != nil {
		return nil, err
	}
	pol := &countingPolicy{p: inner}
	sys, err := buildSystem(tr, cfg, specs, pol)
	if err != nil {
		return nil, err
	}
	id := tr.begin("sim.RunContext")
	res, err := sys.RunContext(ctx)
	tr.end(id)
	o.wall += time.Since(start)
	for _, s := range srcs {
		o.src.add(s.b)
	}
	o.pol.add(pol.b)
	return res, err
}

// digest is the canonical form of a result the traced pass must
// reproduce: the JSON of the whole Result (telemetry is never on here).
func digest(res *profess.Result) string {
	b, err := json.Marshal(res)
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	return string(b)
}

// sampledWorkload runs w09 and w13 on the sampled tier at the committed
// envelope's operating point, scoring every program's IPC against the
// committed full-fidelity references.
type sampledWorkload struct {
	variant int
	refs    *refFile
	cfg     profess.Config
	specs   map[string][]profess.ProgramSpec
}

var sampledMixes = []string{"w09", "w13"}

const (
	sampledInstr    = 6_000_000
	sampledFraction = 0.05
)

func (w *sampledWorkload) warmUp() bool { return true }

func (w *sampledWorkload) setUp(ctx context.Context, tr *tracer) error {
	cfg := profess.MultiCoreConfig(profess.PaperScale)
	cfg.Instructions = sampledInstr
	cfg.SampleFraction = sampledFraction
	salt(w.variant, &cfg, nil)
	w.cfg = cfg
	w.specs = map[string][]profess.ProgramSpec{}
	for _, mix := range sampledMixes {
		specs, err := workloadSpecs(mix, cfg.Scale)
		if err != nil {
			return err
		}
		salt(w.variant, nil, specs)
		w.specs[mix] = specs
		policy, err := sim.NewPolicy(profess.SchemeProFess, len(specs), cfg.Scale)
		if err != nil {
			return err
		}
		if _, err := buildSystem(tr, cfg, specs, policy); err != nil {
			return err
		}
	}
	return nil
}

func (w *sampledWorkload) rep(ctx context.Context, tr *tracer) (*outcome, error) {
	o := &outcome{}
	var dig string
	for _, mix := range sampledMixes {
		key := refKey(w.variant, mix, profess.SchemeProFess)
		res, err := runCell(ctx, tr, w.cfg, w.specs[mix], o)
		o.ops++
		switch {
		case err != nil:
			o.fail("%s: %v", key, err)
			continue
		case res.TimedOut:
			o.fail("%s: timed out", key)
			continue
		}
		o.cells++
		o.instr += programInstructions(res)
		o.results = append(o.results, res)
		dig += digest(res)
		ref, ok := w.refs.IPCs[key]
		if !ok || len(ref) != len(res.PerCore) {
			o.fail("%s: no full-fidelity reference", key)
			continue
		}
		limit := w.refs.MaxIPCError[mix]
		for i, c := range res.PerCore {
			e := math.Abs(c.IPC-ref[i]) / ref[i]
			o.ipcErr = append(o.ipcErr, e)
			if e > limit {
				o.fail("%s: %s IPC error %.4f exceeds the envelope's %.4f", key, c.Program, e, limit)
			}
		}
	}
	o.digest = dig
	return o, nil
}

func (w *sampledWorkload) record(ctx context.Context, rf *refFile) error {
	full := w.cfg
	full.SampleFraction = 0
	for _, mix := range sampledMixes {
		res, err := profess.RunSpecsContext(ctx, w.specs[mix], profess.SchemeProFess, full)
		if err != nil {
			return err
		}
		rf.IPCs[refKey(w.variant, mix, profess.SchemeProFess)] = res.IPCs()
	}
	env, err := envelopeMax(sampledMixes)
	if err != nil {
		return err
	}
	rf.MaxIPCError = env
	return nil
}

// fleetWorkload is the Scale16 ProFess fleet on the epoch-barrier shard
// engine. It runs one shard: on a 2-vCPU host a stolen vCPU stalls every
// shard at the next barrier, and two shards spread several times wider
// than one (NOTES.md).
type fleetWorkload struct {
	variant int
	refs    *refFile
	cfg     profess.Config
	specs   []profess.ProgramSpec
}

const (
	fleetInstr  = 500_000
	fleetMix    = "fleet16"
	fleetShards = 1
)

func (w *fleetWorkload) warmUp() bool { return true }

func (w *fleetWorkload) setUp(ctx context.Context, tr *tracer) error {
	cfg := profess.Scale16Config(profess.PaperScale)
	cfg.Instructions = fleetInstr
	cfg.Shards = fleetShards
	specs, err := profess.Fleet16Specs(cfg.Scale)
	if err != nil {
		return err
	}
	salt(w.variant, &cfg, specs)
	w.cfg, w.specs = cfg, specs
	// The fleet's first construction: one machine per cluster, each with
	// its share of every partitioned resource. The run itself builds them
	// inside the shard engine, out of the benchmark's reach, so the
	// per-cluster slice is derived here the way sim's clusterSlice does.
	n := cfg.Clusters
	per := len(specs) / n
	for k := 0; k < n; k++ {
		sub := cfg
		sub.Clusters, sub.Shards = 1, 0
		sub.Cores /= n
		sub.Channels /= n
		sub.M1Capacity /= int64(n)
		sub.L3Capacity /= int64(n)
		sub.STCEntries /= n
		sub.Regions /= n
		sub.Seed = cfg.Seed ^ (uint64(k+1) * 0x9E3779B97F4A7C15)
		policy, err := sim.NewPolicy(profess.SchemeProFess, per, cfg.Scale)
		if err != nil {
			return err
		}
		if _, err := buildSystem(tr, sub, specs[k*per:(k+1)*per], policy); err != nil {
			return err
		}
	}
	return nil
}

func (w *fleetWorkload) rep(ctx context.Context, tr *tracer) (*outcome, error) {
	o := &outcome{cells: 1}
	specs := w.specs
	var srcs []*countingSource
	if tr != nil {
		var err error
		if specs, srcs, err = wrapSources(specs); err != nil {
			return nil, err
		}
	}
	id := tr.begin("profess.RunSpecs")
	start := time.Now()
	res, err := profess.RunSpecsContext(ctx, specs, profess.SchemeProFess, w.cfg)
	o.wall = time.Since(start)
	tr.end(id)
	for _, s := range srcs {
		o.src.add(s.b)
	}
	checkRun(o, w.refs, refKey(w.variant, fleetMix, profess.SchemeProFess), res, err)
	if err == nil {
		o.instr = programInstructions(res)
		o.results = []*profess.Result{res}
		o.digest = digest(res)
	}
	return o, nil
}

func (w *fleetWorkload) record(ctx context.Context, rf *refFile) error {
	res, err := profess.RunSpecsContext(ctx, w.specs, profess.SchemeProFess, w.cfg)
	if err != nil {
		return err
	}
	rf.Runs[refKey(w.variant, fleetMix, profess.SchemeProFess)] = summarize(res)
	return nil
}
