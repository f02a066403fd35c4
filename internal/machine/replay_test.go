package machine

import (
	"reflect"
	"testing"

	"acedo/internal/isa"
)

// TestReplayMatchesDirect: replaying the fixed-hardware outcomes that
// the direct run's FetchLines, Data and CondBranch report into a fresh
// machine reproduces the direct run's snapshot and timing exactly — the
// machine-level core of the record-once / replay-many fast path.
func TestReplayMatchesDirect(t *testing.T) {
	type fetch struct {
		first, last       uint64
		tlbMask, missMask uint64
	}
	type data struct {
		addr    uint64
		write   bool
		tlbMiss bool
	}
	type branch struct{ correct bool }

	direct := newMach(t)
	var fetches []fetch
	var datas []data
	var branches []branch
	for i := 0; i < 8; i++ {
		first := uint64(i * 5 * 64)
		last := first + uint64(i%3)*64
		tlb, miss, ok := direct.FetchLines(first, last)
		if !ok {
			t.Fatalf("block %d too wide for masks", i)
		}
		fetches = append(fetches, fetch{first, last, tlb, miss})
		direct.IssueBatch(uint64(10 + i))
		for j := 0; j < 5; j++ {
			addr := uint64(i*200 + j*j*3) // the first two share a data block
			write := (i+j)%3 == 0
			datas = append(datas, data{addr, write, direct.Data(addr, write)})
		}
		branches = append(branches, branch{direct.CondBranch(uint64(i*64), i%2 == 0)})
	}

	// Each block's five accesses replay as one ReplayDataWords run of
	// block-operand entries, consecutive accesses to one data block
	// folded into one entry with their write flags ORed, but the last
	// block's as single ReplayData calls at the full word address, and
	// the D-TLB misses are charged apart from the cache walk.
	replay := newMach(t)
	di, bi := 0, 0
	for i, f := range fetches {
		replay.ReplayFetchLines(f.first, f.last, f.tlbMask, f.missMask)
		replay.IssueBatch(uint64(10 + i))
		var run []uint16
		var counts []uint8
		for j := 0; j < 5; j++ {
			d := datas[di]
			di++
			if d.tlbMiss {
				replay.ChargeDataTLBMisses(1)
			}
			if i == len(fetches)-1 {
				replay.ReplayData(d.addr, d.write)
				continue
			}
			op := uint16(d.addr>>(isa.DBlockShift-isa.WordShift)) << 1
			if d.write {
				op |= 1
			}
			if n := len(run); n > 0 && run[n-1]>>1 == op>>1 {
				run[n-1] |= op
				counts[n-1]++
				continue
			}
			run = append(run, op)
			counts = append(counts, 1)
		}
		replay.ReplayDataWords(run, counts)
		if !branches[bi].correct {
			replay.ChargeMispredicts(1)
		}
		bi++
	}

	if !reflect.DeepEqual(direct.Snapshot(), replay.Snapshot()) {
		t.Errorf("replay diverged:\ndirect = %+v\nreplay = %+v", direct.Snapshot(), replay.Snapshot())
	}
	if !reflect.DeepEqual(direct.Timing.Breakdown(), replay.Timing.Breakdown()) {
		t.Errorf("timing diverged:\ndirect = %+v\nreplay = %+v", direct.Timing.Breakdown(), replay.Timing.Breakdown())
	}
}

// TestFetchLinesMaskWidth: a cold walk misses every line, so the L1I
// mask is full up to the 64 lines it can represent; a 65th line still
// fetches but clears ok.
func TestFetchLinesMaskWidth(t *testing.T) {
	for _, tc := range []struct {
		lines uint64
		miss  uint64
		ok    bool
	}{{1, 1, true}, {63, 1<<63 - 1, true}, {64, ^uint64(0), true}, {65, ^uint64(0), false}} {
		m := newMach(t)
		_, miss, ok := m.FetchLines(0, (tc.lines-1)*iLineBytes)
		if miss != tc.miss || ok != tc.ok {
			t.Errorf("%d lines: miss mask %x ok %v, want %x %v", tc.lines, miss, ok, tc.miss, tc.ok)
		}
		if got := m.L1I.Stats().Accesses; got != tc.lines {
			t.Errorf("%d lines: %d L1I accesses", tc.lines, got)
		}
	}
}
