package telemetry

import (
	"fmt"

	"acedo/internal/cache"
	"acedo/internal/machine"
)

// Sampler emits one IntervalMetrics event every Every retired
// instructions, giving the time-resolved view (per-interval IPC, miss
// rates, energy deltas, active settings) that end-of-run aggregates
// hide. It is driven from the engine's basic-block listener, so sample
// boundaries land on block entries — the same granularity at which the
// BBV accumulator hardware observes the run.
//
// The cost model keeps the instrumentation cheap enough to leave on:
// the per-block fast path is one counter comparison; snapshotting work
// happens only once per interval.
type Sampler struct {
	sink  Sink
	mach  *machine.Machine
	every uint64

	next    uint64
	seq     uint64
	prev    machine.Snapshot
	prevL1D cache.Stats
	prevL2  cache.Stats
}

// NewSampler constructs a sampler emitting to sink every `every`
// retired instructions. The first interval starts at the machine's
// current instruction count.
func NewSampler(sink Sink, mach *machine.Machine, every uint64) (*Sampler, error) {
	if sink == nil {
		return nil, fmt.Errorf("telemetry: nil sink")
	}
	if mach == nil {
		return nil, fmt.Errorf("telemetry: nil machine")
	}
	if every == 0 {
		return nil, fmt.Errorf("telemetry: sample interval must be positive")
	}
	s := &Sampler{
		sink:    sink,
		mach:    mach,
		every:   every,
		prev:    mach.Observe(),
		prevL1D: mach.L1D.Stats(),
		prevL2:  mach.L2.Stats(),
	}
	s.next = s.prev.Instr + every
	return s, nil
}

// Every returns the sampling interval in instructions.
func (s *Sampler) Every() uint64 { return s.every }

// OnBlock checks the interval timer. The sampler is a
// vm.BlockListener: install it as (or chain it into) the engine's
// block listener.
func (s *Sampler) OnBlock(pc uint64, instrs int) {
	if s.mach.Instructions() >= s.next {
		s.sample()
	}
}

// Accumulate does nothing: below Due a block entry leaves the sampler
// as it was (vm.BlockListener).
func (s *Sampler) Accumulate(pc uint64, instrs int, n uint64) {}

// Due is the next sample's instruction count (vm.BlockListener).
func (s *Sampler) Due() uint64 { return s.next }

// Final emits the trailing partial interval, if any instructions
// retired since the last sample. Call it once after the run completes.
func (s *Sampler) Final() {
	if s.mach.Instructions() > s.prev.Instr {
		s.sample()
	}
}

// sample closes the current interval and emits its metrics.
func (s *Sampler) sample() {
	snap := s.mach.Observe()
	d := machine.Delta(s.prev, snap)
	l1d := s.mach.L1D.Stats()
	l2 := s.mach.L2.Stats()

	settings := make(map[string]int)
	for _, u := range s.mach.Units() {
		settings[u.Name()] = u.Current()
	}

	s.seq++
	s.sink.Emit(Event{
		Type:  TypeInterval,
		Instr: snap.Instr,
		Interval: &IntervalMetrics{
			Seq:         s.seq,
			Instr:       d.Instr,
			Cycles:      d.Cycles,
			IPC:         d.IPC(),
			L1DAccesses: l1d.Accesses - s.prevL1D.Accesses,
			L1DMissRate: missRate(l1d, s.prevL1D),
			L2Accesses:  l2.Accesses - s.prevL2.Accesses,
			L2MissRate:  missRate(l2, s.prevL2),
			L1DNJ:       d.L1DnJ,
			L2NJ:        d.L2nJ,
			IQNJ:        d.IQnJ,
			Settings:    settings,
		},
	})

	s.prev = snap
	s.prevL1D = l1d
	s.prevL2 = l2
	s.next = snap.Instr + s.every
}

// missRate returns the interval's miss rate from two cumulative
// counters (0 with no accesses).
func missRate(now, prev cache.Stats) float64 {
	acc := now.Accesses - prev.Accesses
	if acc == 0 {
		return 0
	}
	return float64(now.Misses-prev.Misses) / float64(acc)
}
