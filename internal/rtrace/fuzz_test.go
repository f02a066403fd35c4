package rtrace

import (
	"encoding/binary"
	"errors"
	"testing"

	"acedo/internal/machine"
	"acedo/internal/program"
	"acedo/internal/vm"
	"acedo/internal/workload"
)

// fuzzProg is built once: the fuzz target needs a real program to
// resolve methods and blocks against, but a fresh machine per input
// (the replay mutates it).
var fuzzProg = func() *program.Program {
	spec, ok := workload.ByName("jess")
	if !ok {
		panic("no jess benchmark")
	}
	prog, err := spec.Build()
	if err != nil {
		panic(err)
	}
	return prog
}()

func fuzzEnv(t *testing.T) Env {
	t.Helper()
	mach, err := machine.New(machine.PaperConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	return Env{Prog: fuzzProg, Mach: mach, AOS: vm.NewAOS(vm.DefaultParams(), mach, fuzzProg)}
}

// The fuzz input's call encoding: each call is one opcode byte — low 3
// bits the call kind, high 5 bits a small inline operand (31 escapes
// to a uvarint) — plus optional uvarint operands. Data addresses are
// zigzag deltas against the previous data address.
const (
	cBlock  = 0 // RecordBlock(operand), no fetch misses
	cBatch  = 1 // RecordBody(nil, operand, BranchNone)
	cData   = 2 // one-access body, D-TLB hit; operand = write bit | delta<<1 (15 escapes)
	cBranch = 3 // RecordBody(nil, 0, verdict): correct iff operand bit 0
	cEnter  = 4 // RecordEnter(operand), no fetch misses
	cExit   = 5 // RecordExit
	cHalt   = 6 // RecordHalt
	cExt    = 7 // extended call; operand = subtype

	extBlockMasks = 0 // RecordBlock(idx, tlbMask, missMask)
	extEnterMasks = 1 // RecordEnter(id, tlbMask, missMask)
	extDataTLB    = 2 // one-access body with a D-TLB miss (write, delta)
	extEndHalted  = 3 // Finish(true)
	extEndBudget  = 4 // Finish(false)

	escape = 31
)

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// driveDirect maps any byte string to a vm.Recorder call sequence on a
// fresh SummaryRecorder and seals it. Retire batches, data accesses and
// branch verdicts each become one RecordBody call, in the forms the
// engine's stepped path uses. The sequence ends at an end-call
// opcode, or — when the input runs out or an operand does not decode —
// with Finish(!truncated). batch is the saturating sum of the retire
// batches fed in.
func driveDirect(data []byte, truncated bool) (tr *Trace, batch uint64, err error) {
	r := NewSummaryRecorder(fuzzProg, 0)
	var prevAddr uint64
	body := make([]uint64, 1)
	access := func(write, tlbMiss bool) {
		body[0] = vm.BodyData(prevAddr, write, tlbMiss)
		r.RecordBody(body, 0, vm.BranchNone)
	}
	pos := 0
	uv := func() (uint64, bool) {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, false
		}
		pos += n
		return v, true
	}
	addBatch := func(n uint64) {
		r.RecordBody(nil, n, vm.BranchNone)
		if batch+n < batch {
			batch = ^uint64(0)
		} else {
			batch += n
		}
	}
	finish := func(halted bool) (*Trace, uint64, error) {
		tr, err := r.Finish(halted)
		return tr, batch, err
	}
	for pos < len(data) {
		op := data[pos]
		pos++
		kind, pay := op&7, uint64(op>>3)
		if pay == escape && (kind == cBlock || kind == cBatch || kind == cEnter) {
			v, ok := uv()
			if !ok {
				return finish(!truncated)
			}
			pay = v
		}
		switch kind {
		case cBatch:
			addBatch(pay)
		case cData:
			delta := pay >> 1
			if delta == 15 {
				v, ok := uv()
				if !ok {
					return finish(!truncated)
				}
				delta = v
			}
			prevAddr = uint64(int64(prevAddr) + unzigzag(delta))
			access(pay&1 != 0, false)
		case cBranch:
			verdict := vm.BranchWrong
			if pay&1 != 0 {
				verdict = vm.BranchCorrect
			}
			r.RecordBody(nil, 0, verdict)
		case cBlock:
			r.RecordBlock(int(pay), 0, 0, true)
		case cEnter:
			r.RecordEnter(program.MethodID(pay), 0, 0, true)
		case cExit:
			r.RecordExit()
		case cHalt:
			r.RecordHalt()
		case cExt:
			switch pay {
			case extEndHalted:
				return finish(true)
			case extEndBudget:
				return finish(false)
			case extBlockMasks, extEnterMasks:
				v, ok := uv()
				tlbMask, ok2 := uv()
				missMask, ok3 := uv()
				if !ok || !ok2 || !ok3 {
					return finish(!truncated)
				}
				if pay == extBlockMasks {
					r.RecordBlock(int(v), tlbMask, missMask, true)
				} else {
					r.RecordEnter(program.MethodID(v), tlbMask, missMask, true)
				}
			case extDataTLB:
				w, ok := uv()
				delta, ok2 := uv()
				if !ok || !ok2 {
					return finish(!truncated)
				}
				prevAddr = uint64(int64(prevAddr) + unzigzag(delta))
				access(w&1 != 0, true)
			}
		}
	}
	return finish(!truncated)
}

// FuzzRecorderCalls drives the recorder with arbitrary vm.Recorder call
// sequences — including ones no engine produces — and replays whatever
// it seals. The contract under hostile input: never panic; Finish and
// Replay fail only with ErrMalformed or ErrDiverged; the fused and
// listener replays accept the same traces and leave bit-identical
// machines; and a folding listener sees what the exact walk shows it.
func FuzzRecorderCalls(f *testing.F) {
	// Seeds: an empty sequence, lone end calls, a tiny valid sequence, a
	// truncated one, escaped operands, masked entries, garbage, and bodies
	// that must take the ext path.
	f.Add([]byte{}, false)
	f.Add([]byte{cExt | extEndHalted<<3}, false)
	f.Add([]byte{cExt | extEndBudget<<3}, true)
	f.Add([]byte{cEnter, cBatch | 5<<3, cData | 6<<3, cBranch, cExit, cExt | extEndHalted<<3}, false)
	f.Add([]byte{cEnter, cBatch | 5<<3, cHalt, cExt | extEndBudget<<3}, true)
	f.Add([]byte{cEnter, cBatch | escape<<3, 0x80, 0x08, cExt | extEndHalted<<3}, false)
	f.Add([]byte{cExt | extEnterMasks<<3, 0, 1, 1, cExt | extDataTLB<<3, 1, 4, cExt | extEndHalted<<3}, false)
	f.Add([]byte{cBlock | 3<<3, cExit, cExit}, false)
	f.Add([]byte{0xFF, 0xFE, 0xFD, 0x01, 0x02}, true)
	f.Add(extPathInput, false) // wide and multi-access bodies: the ext path

	f.Fuzz(func(t *testing.T, data []byte, truncated bool) {
		okErr := func(label string, err error) {
			if err != nil && !errors.Is(err, ErrMalformed) && !errors.Is(err, ErrDiverged) {
				t.Fatalf("%s: unexpected error class: %v", label, err)
			}
		}
		tr, batch, err := driveDirect(data, truncated)
		okErr("finish", err)
		if err != nil {
			return
		}
		// The sampler legitimately settles every interval a retire batch
		// spans, so a hostile near-2^64 batch means hours of looping for
		// a few input bytes: skip totals no real recording could reach.
		if batch > 10_000_000 {
			t.Skip("absurd batch total")
		}

		fused := fuzzEnv(t)
		errFused := tr.Replay(fused)
		okErr("fused", errFused)

		listened := fuzzEnv(t)
		listened.BlockListener = &blockLog{}
		errListened := tr.Replay(listened)
		okErr("listener", errListened)

		if (errFused == nil) != (errListened == nil) {
			t.Fatalf("accept/reject disagreement: fused=%v listener=%v", errFused, errListened)
		}
		if errFused != nil {
			return
		}
		checkSameState(t, "listener-vs-fused", machineState(fused.Mach), machineState(listened.Mach))

		// A folding listener must see what the exact walk shows it.
		exact, folded := fuzzEnv(t), fuzzEnv(t)
		want, got := newProbe(exact.Mach, 5, true), newProbe(folded.Mach, 5, false)
		exact.BlockListener, folded.BlockListener = want, got
		if err := tr.Replay(exact); err != nil {
			t.Fatalf("exact probe replay: %v", err)
		}
		if err := tr.Replay(folded); err != nil {
			t.Fatalf("folded probe replay: %v", err)
		}
		checkSameState(t, "folded-vs-fused", machineState(fused.Mach), machineState(folded.Mach))
		if !got.same(want) {
			t.Fatalf("folded probe crossed %d times (hash %x, sum %x), exact %d (hash %x, sum %x)",
				got.n, got.h, got.sum, want.n, want.h, want.sum)
		}
	})
}
