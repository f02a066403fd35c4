// Intra-run parallel replay: one run's summarized op stream is split
// into contiguous spans replayed speculatively on worker goroutines,
// each against a private clone of the resizable caches warmed by a
// prefix of the preceding ops. The serial spine consumes spans in
// order; for each span it verifies the worker's assumed start state —
// the canonical view (tags, recency order, dirty bits) of every set
// the span touched, captured at the span's first touch — against the
// live caches, and on a match splices the worker's final set states,
// stats deltas, and arithmetic charges onto the live machine instead
// of re-simulating the span. A failed verification replays that span
// exactly on the spine. Either way the merged result is bit-identical
// to serial replay; only wall-clock time varies.
//
// The soundness preconditions are checked, not assumed: the AOS must
// be passive (vm.AOS.Passive) and no block listener installed, so the
// machine's evolution is a pure function of the trace — no
// reconfigurations, no overhead charges, no sampling feedback into
// timing. Anything else falls back to serial summarized replay.
package rtrace

import (
	"math/bits"
	"sync"

	"acedo/internal/cache"
	"acedo/internal/machine"
)

// minSpanOps is the smallest op span worth a speculative worker;
// maxWarmupOps bounds each worker's warmup prefix.
const (
	minSpanOps   = 2048
	maxWarmupOps = 1 << 18
)

// ReplayParallel is Replay with intra-run parallelism: the trace's
// summarized op stream is split into up to workers spans replayed
// speculatively on goroutines and reconciled in order by the serial
// spine. The machine, AOS, and listener effects are bit-identical to
// Replay in every case — unverifiable spans (and traces that cannot
// be summarized, or environments where speculation is unsound) are
// replayed serially instead.
func (t *Trace) ReplayParallel(env Env, workers int) error {
	s := t.summaryFor(env.Prog)
	if s == nil {
		return t.ReplayExact(env)
	}
	if s.err != nil {
		return s.err
	}
	nspan := workers
	if m := s.n / minSpanOps; nspan > m {
		nspan = m
	}
	if nspan <= 1 || env.BlockListener != nil || !env.AOS.Passive() {
		w := newSumWalker(t, s, env)
		_, err := w.walk(0, s.n, true)
		return err
	}

	live1, live2 := env.Mach.L1D, env.Mach.L2
	bounds := splitSpans(s, nspan)
	nspan = len(bounds) - 1

	results := make([]chan *spanRec, nspan)
	var wg sync.WaitGroup
	defer wg.Wait()
	for k := 1; k < nspan; k++ {
		results[k] = make(chan *spanRec, 1)
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			results[k] <- runSpanWorker(s, bounds[k], bounds[k+1], live1, live2)
		}(k)
	}

	w := newSumWalker(t, s, env)
	done, err := w.walk(bounds[0], bounds[1], true)
	for k := 1; k < nspan && err == nil && !done; k++ {
		rec := <-results[k]
		trueViews, ok := rec.verify(live1, live2)
		if !ok || rec.failed {
			done, err = w.walk(bounds[k], bounds[k+1], true)
			continue
		}
		tick1, tick2 := live1.Tick(), live2.Tick()
		done, err = w.walk(bounds[k], bounds[k+1], false)
		if err == nil {
			rec.splice(env.Mach, trueViews, tick1, tick2)
		}
	}
	return err
}

// splitSpans partitions the op stream into nspan contiguous spans of
// roughly equal replay weight (1 per op + 1 per data access + 1 per
// recorded L1I miss line), returning the nspan+1 boundary indices.
func splitSpans(s *summary, nspan int) []int {
	var total uint64
	weights := make([]uint64, s.n)
	for i := range weights {
		g, k := s.seg(i)
		o := &g.ops[k]
		var w uint64
		if o.w&opExtBit != 0 {
			x := &s.ext[o.d]
			w = 1 + uint64(x.nData) + uint64(bits.OnesCount64(x.missMask))
		} else {
			w = 1 + o.w>>opDataShift&opDataMax
		}
		weights[i] = w
		total += w
	}
	bounds := make([]int, 1, nspan+1)
	var acc uint64
	for i, w := range weights {
		acc += w
		k := len(bounds)
		if k < nspan && acc >= total*uint64(k)/uint64(nspan) && i+1 < s.n {
			bounds = append(bounds, i+1)
		}
	}
	return append(bounds, s.n)
}

// spanView is one cache set a span touched: the worker's assumed view
// of it at span start (captured at the span's first touch of the set,
// before which the set is provably unchanged since span start) and
// its final view at span end. Final LastUse values are span-relative
// ordinals — 0 marks a line inherited untouched from the assumption.
type spanView struct {
	l2     bool
	set    uint64
	assume []cache.LineView
	final  []cache.LineView
}

// spanRec is a worker's speculative result: the touched-set views and
// the span's private stats deltas for both caches.
type spanRec struct {
	views  []spanView
	l1d    cache.Stats
	l2     cache.Stats
	failed bool // clone construction failed; spine must replay exactly
}

// spanWorker replays one span's cache-relevant ops against private
// clones, recording first-touch assumptions and final states.
type spanWorker struct {
	s        *summary
	l1d, l2  *cache.Cache
	fastOK   bool
	tracking bool
	tick1    uint64
	tick2    uint64
	base1    cache.Stats
	base2    cache.Stats
	idx      map[[2]uint64]int
	rec      *spanRec
}

// runSpanWorker replays ops[lo:hi) on clones of the live caches after
// warming them with a bounded prefix of the preceding ops. Only cache
// state is simulated — batches, branches, TLB outcomes, and energy
// are state-independent arithmetic the spine applies itself.
func runSpanWorker(s *summary, lo, hi int, live1, live2 *cache.Cache) *spanRec {
	rec := &spanRec{}
	l1d, err1 := cache.New("l1d-span", live1.SizeBytes(), live1.BlockBytes(), live1.Ways())
	l2, err2 := cache.New("l2-span", live2.SizeBytes(), live2.BlockBytes(), live2.Ways())
	if err1 != nil || err2 != nil {
		rec.failed = true
		return rec
	}
	wk := &spanWorker{
		s:      s,
		l1d:    l1d,
		l2:     l2,
		fastOK: live1.BlockBytes() == iLine,
		idx:    make(map[[2]uint64]int),
		rec:    rec,
	}
	warm := hi - lo
	if warm > maxWarmupOps {
		warm = maxWarmupOps
	}
	wlo := lo - warm
	if wlo < 0 {
		wlo = 0
	}
	for i := wlo; i < hi; i++ {
		if i == lo {
			wk.startSpan()
		}
		g, k := s.seg(i)
		wk.applyOp(g.ops[k])
	}
	wk.finish()
	return rec
}

func (wk *spanWorker) startSpan() {
	wk.tracking = true
	wk.tick1 = wk.l1d.Tick()
	wk.tick2 = wk.l2.Tick()
	wk.base1 = wk.l1d.Stats()
	wk.base2 = wk.l2.Stats()
}

// applyOp replays one op's cache traffic: the recorded L1I miss
// lines' L2 fills in line order, then the body's data accesses in
// access order (a direct access for single-access bodies, otherwise
// the same footprint fast path the serial walker uses when every line
// is resident in the clone).
func (wk *spanWorker) applyOp(o sumOp) {
	if o.w&opExtBit != 0 {
		x := &wk.s.ext[o.d]
		if x.missMask != 0 {
			for b := uint64(0); b < uint64(x.nLines); b++ {
				if x.missMask&(1<<b) != 0 {
					wk.l2Access(x.firstLine+b*iLine, false)
				}
			}
		}
		if x.nData > 0 {
			wk.applyBody(x.fastOK, uint32(x.nFoot), x.footOff, x.dataOff, x.nData)
		}
		return
	}
	nData := uint32(o.w >> opDataShift & opDataMax)
	switch {
	case nData == 0:
	case nData == 1:
		wk.l1dAccess((o.d>>1)*8, o.d&1 != 0)
	default:
		wk.applyBody(o.w&opFastBit != 0, uint32(o.w>>opFootShift&opFootMax),
			uint32(o.d>>32), uint32(o.d), nData)
	}
}

// applyBody replays a multi-access body against the clones.
func (wk *spanWorker) applyBody(fastOK bool, nFoot, footOff, dataOff, nData uint32) {
	if fastOK && wk.fastOK {
		foot := wk.s.foot[footOff : footOff+nFoot]
		if wk.tracking {
			for i := range foot {
				wk.touch(false, wk.l1d, foot[i].Addr)
			}
		}
		if wk.l1d.TryApplyFootprint(foot, uint64(nData)) {
			return
		}
	}
	for _, d := range wk.s.data[dataOff : dataOff+nData] {
		wk.l1dAccess((d>>1)*8, d&1 != 0)
	}
}

// l1dAccess replays one data access on the clones: the L1D probe, the
// evicted line's L2 writeback, and the miss's L2 fill.
func (wk *spanWorker) l1dAccess(addr uint64, write bool) {
	if wk.tracking {
		wk.touch(false, wk.l1d, addr)
	}
	r := wk.l1d.Access(addr, write)
	if r.Writeback {
		wk.l2Access(r.WritebackAddr, true)
	}
	if !r.Hit {
		wk.l2Access(addr, false)
	}
}

func (wk *spanWorker) l2Access(addr uint64, write bool) {
	if wk.tracking {
		wk.touch(true, wk.l2, addr)
	}
	wk.l2.Access(addr, write)
}

// touch records the set's assumed view the first time the span
// touches it — the set is unchanged between span start and this
// moment, so the captured view is the span-start view.
func (wk *spanWorker) touch(l2 bool, c *cache.Cache, addr uint64) {
	set := c.SetOf(addr)
	key := [2]uint64{0, set}
	if l2 {
		key[0] = 1
	}
	if _, seen := wk.idx[key]; seen {
		return
	}
	wk.idx[key] = len(wk.rec.views)
	wk.rec.views = append(wk.rec.views, spanView{l2: l2, set: set, assume: c.ViewSet(set)})
}

// finish converts each touched set's final view to span-relative
// ordinals (0 = inherited from the assumption) and captures the
// span's stats deltas.
func (wk *spanWorker) finish() {
	for i := range wk.rec.views {
		v := &wk.rec.views[i]
		c, tick := wk.l1d, wk.tick1
		if v.l2 {
			c, tick = wk.l2, wk.tick2
		}
		fin := c.ViewSet(v.set)
		for j := range fin {
			if fin[j].LastUse > tick {
				fin[j].LastUse -= tick
			} else {
				fin[j].LastUse = 0
			}
		}
		v.final = fin
	}
	wk.rec.l1d = wk.l1d.Stats().Sub(wk.base1)
	wk.rec.l2 = wk.l2.Stats().Sub(wk.base2)
}

// verify checks the span's assumptions against the live caches: every
// touched set's live view must carry the same tags in the same
// recency order with the same dirty bits as the worker assumed (equal
// views determine identical behavior on any future access sequence —
// way placement only permutes victim identity between lines the view
// already orders). It also confirms every inherited final line
// resolves to a live tag. On success it returns the live views, which
// splice needs to assign inherited lines their true last-use ticks.
func (rec *spanRec) verify(live1, live2 *cache.Cache) ([][]cache.LineView, bool) {
	trueViews := make([][]cache.LineView, len(rec.views))
	for i := range rec.views {
		v := &rec.views[i]
		c := live1
		if v.l2 {
			c = live2
		}
		tv := c.ViewSet(v.set)
		if len(tv) != len(v.assume) {
			return nil, false
		}
		for j := range tv {
			if tv[j].Tag != v.assume[j].Tag || tv[j].Dirty != v.assume[j].Dirty {
				return nil, false
			}
		}
		for j := range v.final {
			if v.final[j].LastUse == 0 && lookupTag(tv, v.final[j].Tag) == nil {
				return nil, false
			}
		}
		trueViews[i] = tv
	}
	return trueViews, true
}

func lookupTag(view []cache.LineView, tag uint64) *cache.LineView {
	for i := range view {
		if view[i].Tag == tag {
			return &view[i]
		}
	}
	return nil
}

// splice grafts the verified span onto the live machine: each touched
// set's final lines are installed with absolute last-use ticks
// (span-start tick + ordinal for lines the span touched; the live
// line's own tick for inherited ones — inherited ticks precede the
// span-start tick, so the composed ordering matches serial replay
// exactly), the LRU clocks advance by the span's access counts, the
// stats deltas are added, and the span's energy and stall charges are
// applied in bulk.
func (rec *spanRec) splice(mach *machine.Machine, trueViews [][]cache.LineView, tick1, tick2 uint64) {
	for i := range rec.views {
		v := &rec.views[i]
		c, tick := mach.L1D, tick1
		if v.l2 {
			c, tick = mach.L2, tick2
		}
		lines := make([]cache.LineView, len(v.final))
		for j, ln := range v.final {
			if ln.LastUse == 0 {
				ln.LastUse = lookupTag(trueViews[i], ln.Tag).LastUse
			} else {
				ln.LastUse += tick
			}
			lines[j] = ln
		}
		c.StoreSet(v.set, lines)
	}
	mach.L1D.AdvanceTick(rec.l1d.Accesses)
	mach.L2.AdvanceTick(rec.l2.Accesses)
	mach.L1D.AddStats(rec.l1d)
	mach.L2.AddStats(rec.l2)
	mach.SpliceSpanCharges(rec.l1d.Accesses, rec.l1d.Misses, rec.l2.Accesses, rec.l2.Misses)
}
