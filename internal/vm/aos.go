package vm

import (
	"acedo/internal/fault"
	"acedo/internal/machine"
	"acedo/internal/program"
)

// MethodProfile is a method's entry in the DO database: the runtime
// profiling information the dynamic optimizer gathers (Section 3.1)
// plus the storage the ACE framework attaches to hotspots (the
// configuration list and tuning state live with the manager; the
// profile exposes the identity and demography).
type MethodProfile struct {
	ID   program.MethodID
	Name string

	// Invocations counts completed plus in-flight entries.
	Invocations uint64
	// Samples counts timer-sampling hits while the method was the
	// innermost active one.
	Samples uint64
	// InclusiveInstr sums, over completed invocations, the dynamic
	// instructions between entry and exit including callees. Nested
	// hotspots therefore contribute to their enclosing hotspot's
	// size — the property CU decoupling relies on (Section 3.2.1).
	InclusiveInstr uint64
	// CompletedInvocations counts invocations whose exit has been
	// seen (the denominator for MeanSize).
	CompletedInvocations uint64

	// Promoted is set once the AOS declares the method a hotspot
	// and JIT-optimizes it.
	Promoted bool
	// PromotedAt is the machine instruction count at promotion
	// (used for the hotspot identification latency of Table 4).
	PromotedAt uint64
	// InstrBeforePromotion is the method's own inclusive
	// instruction total at the moment of promotion — execution that
	// happened before the hotspot was recognized.
	InstrBeforePromotion uint64
}

// MeanSize returns the mean inclusive dynamic instructions per
// completed invocation — the hotspot size used for CU selection.
func (p *MethodProfile) MeanSize() float64 {
	if p.CompletedInvocations == 0 {
		return 0
	}
	return float64(p.InclusiveInstr) / float64(p.CompletedInvocations)
}

// Hooks is the code the JIT compiler inserts at a hotspot's
// boundaries. Overheads are charged to the machine as extra
// instructions (and hence cycles, and IQ energy when that unit is
// enabled) every time the hook runs, modelling the inserted stub's
// execution cost.
type Hooks struct {
	// Entry runs immediately after the hotspot's invocation, before
	// its first instruction (the tuning or configuration code).
	Entry func(prof *MethodProfile)
	// Exit runs when the invocation leaves the hotspot (the
	// profiling or sampling code). inclusive is the invocation's
	// inclusive instruction count.
	Exit func(prof *MethodProfile, inclusive uint64)
	// EntryOverhead and ExitOverhead are the stub lengths in
	// instructions.
	EntryOverhead uint64
	ExitOverhead  uint64
}

// AOS is the adaptive optimization system. It owns the DO database,
// the sampling profiler state, and the hook table. A single consumer
// (the ACE manager) subscribes to promotions via OnPromote.
type AOS struct {
	params Params
	mach   *machine.Machine

	profiles []MethodProfile
	hooks    []*Hooks

	// OnPromote, if non-nil, is invoked once when a method becomes
	// a hotspot — the point where the JIT inserts tuning code.
	OnPromote func(prof *MethodProfile)

	nextSample uint64

	// faults, when non-nil, may drop or duplicate due timer samples
	// (the timer-sample injection point).
	faults         *fault.Injector
	droppedSamples uint64
	dupSamples     uint64

	overheadInstr uint64
	promotions    uint64

	// Hotspot-execution span tracking for Table 4's "% of code in
	// hotspots": instructions executed while at least one promoted
	// method is on the call stack. hotStack mirrors the engine's
	// frame stack with each frame's promoted-at-entry status.
	hotStack     []bool
	hotDepth     int
	hotSpanStart uint64
	hotInstr     uint64
}

// NewAOS constructs the adaptive optimization system for one program
// running on one machine.
func NewAOS(params Params, mach *machine.Machine, prog *program.Program) *AOS {
	a := &AOS{
		params:     params,
		mach:       mach,
		profiles:   make([]MethodProfile, prog.NumMethods()),
		hooks:      make([]*Hooks, prog.NumMethods()),
		nextSample: params.SampleInterval,
	}
	for i := range a.profiles {
		a.profiles[i].ID = program.MethodID(i)
		a.profiles[i].Name = prog.Methods[i].Name
	}
	return a
}

// Params returns the AOS parameters.
func (a *AOS) Params() Params { return a.params }

// Profile returns the DO database entry for a method.
func (a *AOS) Profile(id program.MethodID) *MethodProfile { return &a.profiles[id] }

// Profiles returns the full DO database (indexed by method ID).
func (a *AOS) Profiles() []MethodProfile { return a.profiles }

// Promotions returns the number of hotspots detected so far.
func (a *AOS) Promotions() uint64 { return a.promotions }

// OverheadInstr returns the instrumentation instructions charged so
// far (tuning/profiling/configuration/sampling stubs).
func (a *AOS) OverheadInstr() uint64 { return a.overheadInstr }

// HotspotInstr returns the number of instructions executed while at
// least one promoted method was on the call stack (Table 4's "% of
// code in hotspots" numerator). Valid once the engine has halted (the
// halt unwinding closes open spans).
func (a *AOS) HotspotInstr() uint64 { return a.hotInstr }

// ChargeOverhead charges n extra instrumentation instructions to the
// machine, for stubs whose cost is paid only on some executions (e.g.
// the occasional performance-sampling code at a configured hotspot's
// exit).
func (a *AOS) ChargeOverhead(n uint64) {
	a.mach.Issue(n)
	a.overheadInstr += n
}

// SetHooks installs (or, with nil, removes) the boundary hooks for a
// method — the JIT compiler rewriting a hotspot's prologue/epilogue.
func (a *AOS) SetHooks(id program.MethodID, h *Hooks) { a.hooks[id] = h }

// HooksFor returns the installed hooks for a method, or nil.
func (a *AOS) HooksFor(id program.MethodID) *Hooks { return a.hooks[id] }

// methodEnter is called by the engine on every method invocation.
func (a *AOS) methodEnter(id program.MethodID) {
	p := &a.profiles[id]
	p.Invocations++
	if !p.Promoted &&
		p.Invocations >= a.params.HotThreshold &&
		p.Samples >= a.params.MinSamples {
		a.promote(p)
	}
	a.hotStack = append(a.hotStack, p.Promoted)
	if p.Promoted {
		if a.hotDepth == 0 {
			a.hotSpanStart = a.mach.Instructions()
		}
		a.hotDepth++
	}
	if h := a.hooks[id]; h != nil {
		if h.EntryOverhead > 0 {
			a.mach.Issue(h.EntryOverhead)
			a.overheadInstr += h.EntryOverhead
		}
		if h.Entry != nil {
			h.Entry(p)
		}
	}
}

// methodExit is called by the engine on every method return with the
// invocation's inclusive instruction count.
func (a *AOS) methodExit(id program.MethodID, inclusive uint64) {
	p := &a.profiles[id]
	p.InclusiveInstr += inclusive
	p.CompletedInvocations++
	if n := len(a.hotStack); n > 0 {
		wasHot := a.hotStack[n-1]
		a.hotStack = a.hotStack[:n-1]
		if wasHot {
			a.hotDepth--
			if a.hotDepth == 0 {
				a.hotInstr += a.mach.Instructions() - a.hotSpanStart
			}
		}
	}
	if h := a.hooks[id]; h != nil {
		if h.ExitOverhead > 0 {
			a.mach.Issue(h.ExitOverhead)
			a.overheadInstr += h.ExitOverhead
		}
		if h.Exit != nil {
			h.Exit(p, inclusive)
		}
	}
}

func (a *AOS) promote(p *MethodProfile) {
	p.Promoted = true
	p.PromotedAt = a.mach.Instructions()
	p.InstrBeforePromotion = p.InclusiveInstr
	a.promotions++
	if a.OnPromote != nil {
		a.OnPromote(p)
	}
}

// SetFaults installs (or, with nil, removes) a fault injector for the
// timer-sample point. Install before running the engine.
func (a *AOS) SetFaults(inj *fault.Injector) { a.faults = inj }

// DroppedSamples and DupSamples report the fault injector's effect on
// the sampling profiler (zero without an injector).
func (a *AOS) DroppedSamples() uint64 { return a.droppedSamples }

// DupSamples returns the number of duplicated timer samples.
func (a *AOS) DupSamples() uint64 { return a.dupSamples }

// sampleDue checks the sampling timer; the engine calls it on every
// retired instruction (the fast path is one comparison). When a sample
// is due, the engine credits every method on the call stack via
// creditSample — like Jikes' caller sampling, so enclosing hot methods
// accumulate samples proportional to their inclusive execution time,
// not just their own loop overhead. The return value is the number of
// times to deliver the sample: normally 1, but an installed fault
// injector can drop a due sample (0) or duplicate it (2) — lossy and
// glitchy profiling timers are a first-class input the promotion
// logic must tolerate.
func (a *AOS) sampleDue(nowInstr uint64) int {
	if nowInstr < a.nextSample || a.params.SampleInterval == 0 {
		return 0
	}
	a.nextSample += a.params.SampleInterval
	return a.deliver()
}

// deliver routes one due timer sample through the fault injector and
// returns how many times to credit it (0 dropped, 1 normal, 2
// duplicated).
func (a *AOS) deliver() int {
	if a.faults != nil {
		switch a.faults.TimerSample() {
		case fault.SampleDrop:
			a.droppedSamples++
			return 0
		case fault.SampleDuplicate:
			a.dupSamples++
			return 2
		}
	}
	return 1
}

// sampleDueN replays the per-instruction sampler poll over a batch of
// n just-retired instructions ending at instruction count now, and
// returns the total number of sample deliveries. It advances the
// next-sample watermark and consults the fault injector once per due
// sample, in the same order as n sequential sampleDue polls at counts
// now-n+1 … now — the batched engine path lands samples on exactly
// the same instruction indices as the stepped path. Within a
// straight-line run the frame stack cannot change, so the caller may
// credit all deliveries against the current stack.
func (a *AOS) sampleDueN(now, n uint64) int {
	interval := a.params.SampleInterval
	if interval == 0 || now < a.nextSample {
		return 0
	}
	total := 0
	c := now - n + 1
	for a.nextSample <= now {
		if c < a.nextSample {
			c = a.nextSample // polls before the watermark don't fire
		}
		a.nextSample += interval
		total += a.deliver()
		if c++; c > now {
			break
		}
	}
	return total
}

// creditSample records one profiler sample for a method.
func (a *AOS) creditSample(id program.MethodID) {
	a.profiles[id].Samples++
}
