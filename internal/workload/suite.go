package workload

import "sync"

// The seven SPECjvm98 stand-ins. Each Spec is engineered to match the
// published hotspot demography and phase character of its namesake at
// the default 1/10 scale (DESIGN.md §4): leaf methods with 5–15 K
// instructions per invocation are the L1D-class hotspots, phase
// methods (≥50 K instructions) are the L2-class hotspots, and
// transition methods provide the BBV-visible stable or transitional
// filler the originals exhibit in Figure 1.
//
// Structural rules, derived during calibration (EXPERIMENTS.md):
//
//   - Band rule: the cache-resident leaves of one phase share an L1D
//     footprint band, and their arrays together fill roughly half of
//     the band's target size, so every leaf of the phase converges to
//     the same L1D choice and reconfigurations happen at phase/step
//     boundaries. Cross-phase band diversity is what the framework
//     exploits.
//   - Indifferent leaves (pure compute, streaming chunks, sparse
//     probes into ≥128 KB structures) are sized below the L1D class
//     (<5 K instructions) so they are JIT-promoted but unmanaged and
//     never fight the band.
//   - Resident-region rule: a benchmark has at most one long-lived
//     probe structure, sized ≈50% of the L2 size it should pin, and
//     probed once per phase invocation (OnceRuns), not per rotation —
//     keeping band-leaf measurements clean, as at the paper's scale.
//   - Rotation rule: one rotation of a phase's sub-phase runs is
//     25–50 K instructions — above the L1D reconfiguration interval,
//     below the BBV sampling interval — and the once-section stays
//     under ~10% of the invocation so consecutive intervals of a phase
//     carry the same signature.
//
// Per-benchmark shape levers:
//
//   - compress: two bands (32 K scan vs 8 K pack/flush), long regular
//     phases, a 128 KB dictionary history pinning the L2 at 256 KB.
//   - db: query/join bands are 8 K while the misses concentrate in a
//     sparse resident 256 KB heap probe — "few procedures cause >95%
//     of misses" — making db the paper's best hotspot L1D case.
//   - jack: many small uniform hotspots across 8/16/32 K bands; long
//     constant transition sections that BBV tunes as stable phases
//     but that fall below the framework's class sizes, so BBV covers
//     more execution and wins L2.
//   - javac: six short, rarely-repeating phase mixtures — the most
//     transitional benchmark of Figure 1 — with the lowest L2-class
//     coverage for the framework (as in the paper's Table 6).
//   - jess: probe-heavy matching with a resident 128 KB working
//     memory.
//   - mpeg: extremely regular streaming decode; the input phase is
//     sweep-dominated so its signature stays uniform.
//   - mtrt: a large resident scene plus two sub-L2-class "thread
//     slices" that keep ~35% of execution outside L2 hotspots; BBV
//     coverage is near-total and BBV wins L2, as in the paper.

// suiteSpecs are the seven benchmark constructors in the paper's order.
var suiteSpecs = []func() Spec{Compress, DB, Jack, Javac, Jess, Mpeg, Mtrt}

// suiteIndex maps each benchmark's name to its suiteSpecs position, so
// ByName builds only the spec it returns: a job submission looks its
// benchmarks up by name, and building all seven specs per lookup was a
// steady stream of garbage in the service.
var suiteIndex = sync.OnceValue(func() map[string]int {
	idx := make(map[string]int, len(suiteSpecs))
	for i, f := range suiteSpecs {
		idx[f().Name] = i
	}
	return idx
})

// Suite returns the seven benchmark specs in the paper's order.
func Suite() []Spec {
	specs := make([]Spec, len(suiteSpecs))
	for i, f := range suiteSpecs {
		specs[i] = f()
	}
	return specs
}

// ByName returns the spec with the given name, or false.
func ByName(name string) (Spec, bool) {
	i, ok := suiteIndex()[name]
	if !ok {
		return Spec{}, false
	}
	return suiteSpecs[i](), true
}

// Words per kilobyte of data (8-byte words).
const wordsPerKB = 128

// Compress models 201_compress: an LZW compressor streaming input
// through a dictionary and writing compressed output.
func Compress() Spec {
	return Spec{
		Name: "compress",
		Desc: "A popular LZW compression program.",
		Seed: 101,
		Leaves: []LeafSpec{
			// 32 K band (scan): 16 KB + 16 KB arrays.
			{Name: "input", Kind: SeqRead, FootprintWords: 8 * wordsPerKB, Stride: 1, Repeats: 1, Pad: 1},
			{Name: "dict", Kind: Probe, FootprintWords: 8 * wordsPerKB, Iters: 900},
			// 8 K band (pack/flush).
			{Name: "output", Kind: SeqWrite, FootprintWords: 4 * wordsPerKB, Stride: 1, Repeats: 2},
			// Indifferent (unmanaged).
			{Name: "huff", Kind: Compute, Iters: 600, Pad: 2},
			{Name: "history", Kind: Probe, FootprintWords: 128 * wordsPerKB, Iters: 320, Pad: 2},
		},
		Phases: []PhaseSpec{
			{Name: "scan", OnceRuns: []LeafRun{{4, 2}}, Runs: []LeafRun{{0, 2}, {1, 2}}, Reps: 5, ChunkLeaf: -1},
			{Name: "pack", OnceRuns: []LeafRun{{4, 1}}, Runs: []LeafRun{{2, 2}, {3, 1}}, Reps: 9, ChunkLeaf: -1},
			{Name: "flush", OnceRuns: []LeafRun{{4, 1}}, Runs: []LeafRun{{2, 1}, {3, 3}}, Reps: 9, ChunkLeaf: -1},
		},
		TransPool:           12,
		TransFootprintWords: 256,
		Script: []Step{
			{Phase: 0, Reps: 4, TransMix: []int{0, 1, 2, 3}, TransReps: 18},
			{Phase: 1, Reps: 3},
			{Phase: 2, Reps: 3, TransMix: []int{0, 1, 2, 3}, TransReps: 18},
		},
		MainLoops: 30,
	}
}

// DB models 209_db: data management whose misses concentrate in a
// sparse resident heap probe.
func DB() Spec {
	return Spec{
		Name: "db",
		Desc: "Data management benchmarking software written by IBM.",
		Seed: 202,
		Leaves: []LeafSpec{
			// 8 K bands (query/join).
			{Name: "key", Kind: SeqRead, FootprintWords: 2 * wordsPerKB, Stride: 1, Repeats: 4, Pad: 1},
			{Name: "fmt", Kind: SeqRead, FootprintWords: 2 * wordsPerKB, Stride: 1, Repeats: 4},
			// 16 K band (sort): 8 KB + 8 KB arrays.
			{Name: "shuffle", Kind: SeqWrite, FootprintWords: 4 * wordsPerKB, Stride: 1, Repeats: 2},
			{Name: "merge", Kind: SeqRead, FootprintWords: 4 * wordsPerKB, Stride: 1, Repeats: 2, Pad: 1},
			// Indifferent.
			{Name: "cmp", Kind: Compute, Iters: 800, Pad: 1},
			{Name: "heap", Kind: Probe, FootprintWords: 256 * wordsPerKB, Iters: 320, Pad: 2},
		},
		Phases: []PhaseSpec{
			{Name: "query", OnceRuns: []LeafRun{{5, 2}}, Runs: []LeafRun{{0, 2}, {4, 1}, {1, 2}}, Reps: 7, ChunkLeaf: -1},
			{Name: "join", OnceRuns: []LeafRun{{5, 3}}, Runs: []LeafRun{{0, 3}, {4, 1}}, Reps: 8, ChunkLeaf: -1},
			{Name: "sort", OnceRuns: []LeafRun{{5, 1}}, Runs: []LeafRun{{2, 2}, {3, 2}, {4, 1}}, Reps: 7, ChunkLeaf: -1},
		},
		TransPool:           12,
		TransFootprintWords: 256,
		Script: []Step{
			{Phase: 0, Reps: 4, TransMix: []int{0, 1, 2}, TransReps: 12},
			{Phase: 1, Reps: 3},
			{Phase: 2, Reps: 3, TransMix: []int{3, 4, 5}, TransReps: 12},
		},
		MainLoops: 28,
	}
}

// Jack models 228_jack: a parser generator with many small, uniformly
// hot procedures and an extremely repetitive outer structure.
func Jack() Spec {
	return Spec{
		Name: "jack",
		Desc: "A real parser-generator from Sun Microsystems.",
		Seed: 303,
		Leaves: []LeafSpec{
			// lex band: 8 K (2+2+2 KB).
			{Name: "tok0", Kind: SeqRead, FootprintWords: 1 * wordsPerKB, Stride: 1, Repeats: 8},
			{Name: "tok1", Kind: SeqRead, FootprintWords: 1 * wordsPerKB, Stride: 1, Repeats: 8, Pad: 1},
			{Name: "nfa0", Kind: Probe, FootprintWords: 2 * wordsPerKB, Iters: 600},
			// parse band: 32 K (8+8+8 KB).
			{Name: "tbl0", Kind: SeqRead, FootprintWords: 8 * wordsPerKB, Stride: 1, Repeats: 1},
			{Name: "tbl1", Kind: Probe, FootprintWords: 4 * wordsPerKB, Iters: 650},
			{Name: "nfa1", Kind: Probe, FootprintWords: 4 * wordsPerKB, Iters: 600, Pad: 1},
			// gen band: 16 K (4+8+2 KB).
			{Name: "emit0", Kind: SeqWrite, FootprintWords: 2 * wordsPerKB, Stride: 1, Repeats: 4},
			{Name: "emit1", Kind: SeqWrite, FootprintWords: 4 * wordsPerKB, Stride: 1, Repeats: 2},
			{Name: "lit", Kind: SeqRead, FootprintWords: 2 * wordsPerKB, Stride: 1, Repeats: 4},
			// Indifferent.
			{Name: "sem0", Kind: Compute, Iters: 550, Pad: 2},
			{Name: "sem1", Kind: Compute, Iters: 700, Pad: 1},
			{Name: "fold", Kind: Compute, Iters: 500, Pad: 3},
		},
		Phases: []PhaseSpec{
			{Name: "lex", Runs: []LeafRun{{0, 2}, {1, 2}, {2, 1}, {9, 1}}, Reps: 7, ChunkLeaf: -1},
			{Name: "parse", Runs: []LeafRun{{3, 2}, {4, 1}, {5, 1}, {10, 1}}, Reps: 8, ChunkLeaf: -1},
			{Name: "gen", Runs: []LeafRun{{6, 2}, {7, 2}, {8, 1}, {11, 1}}, Reps: 7, ChunkLeaf: -1},
		},
		TransPool:           10,
		TransFootprintWords: 256,
		Script: []Step{
			{Phase: 0, Reps: 4, TransMix: []int{0, 1, 2, 3}, TransReps: 55},
			{Phase: 1, Reps: 4, TransMix: []int{0, 1, 2, 3}, TransReps: 55},
			{Phase: 2, Reps: 4, TransMix: []int{0, 1, 2, 3}, TransReps: 55},
		},
		MainLoops: 18,
	}
}

// Javac models 213_javac: the JDK compiler, whose pass structure
// produces many short-lived, rarely-repeating phase mixtures.
func Javac() Spec {
	return Spec{
		Name: "javac",
		Desc: "The JDK 1.0.2 Java compiler.",
		Seed: 404,
		Leaves: []LeafSpec{
			// parse band: 8 K (2+4 KB).
			{Name: "scan", Kind: SeqRead, FootprintWords: 2 * wordsPerKB, Stride: 1, Repeats: 4},
			{Name: "ast0", Kind: Probe, FootprintWords: 2 * wordsPerKB, Iters: 600},
			// enter band: 32 K (8+8 KB).
			{Name: "sym", Kind: Probe, FootprintWords: 8 * wordsPerKB, Iters: 650},
			{Name: "ast1", Kind: SeqRead, FootprintWords: 8 * wordsPerKB, Stride: 1, Repeats: 1},
			// write band: 16 K (4+8 KB).
			{Name: "emit", Kind: SeqWrite, FootprintWords: 4 * wordsPerKB, Stride: 1, Repeats: 2},
			{Name: "cpool", Kind: Probe, FootprintWords: 4 * wordsPerKB, Iters: 600},
			// read band: 32 K (16+2 KB).
			{Name: "zip", Kind: SeqRead, FootprintWords: 12 * wordsPerKB, Stride: 2, Repeats: 2},
			// Indifferent.
			{Name: "type", Kind: Compute, Iters: 600, Pad: 2},
			{Name: "flow", Kind: Compute, Iters: 500, Pad: 1},
		},
		Phases: []PhaseSpec{
			{Name: "parse", Runs: []LeafRun{{0, 2}, {1, 2}, {7, 1}}, Reps: 5, ChunkLeaf: -1},
			{Name: "enter", Runs: []LeafRun{{2, 2}, {3, 2}, {8, 1}}, Reps: 5, ChunkLeaf: -1},
			{Name: "attr", Runs: []LeafRun{{2, 1}, {1, 2}, {7, 1}, {8, 1}}, Reps: 6, ChunkLeaf: -1},
			{Name: "lower", Runs: []LeafRun{{1, 1}, {4, 2}, {8, 1}}, Reps: 6, ChunkLeaf: -1},
			{Name: "write", Runs: []LeafRun{{4, 2}, {5, 2}, {7, 1}}, Reps: 5, ChunkLeaf: -1},
			{Name: "read", Runs: []LeafRun{{6, 2}, {0, 2}, {8, 1}}, Reps: 3, ChunkLeaf: -1},
		},
		TransPool:           24,
		TransFootprintWords: 512,
		Script: []Step{
			{Phase: 0, Reps: 1, TransMix: []int{0, 5, 10}, TransReps: 10},
			{Phase: 1, Reps: 1, TransMix: []int{1, 6, 11, 16}, TransReps: 10},
			{Phase: 2, Reps: 3, TransMix: []int{2, 7, 12}, TransReps: 10},
			{Phase: 3, Reps: 1, TransMix: []int{3, 8, 13, 18}, TransReps: 10},
			{Phase: 4, Reps: 3, TransMix: []int{4, 9, 14}, TransReps: 10},
			{Phase: 5, Reps: 2, TransMix: []int{15, 19, 20, 21}, TransReps: 10},
			{Phase: 2, Reps: 1, TransMix: []int{17, 22, 23}, TransReps: 10},
			{Phase: 4, Reps: 1, TransMix: []int{5, 11, 21}, TransReps: 10},
		},
		MainLoops: 38,
	}
}

// Jess models 202_jess: the CLIPS rule engine — probe-heavy working
// memory matching with a resident working memory.
func Jess() Spec {
	return Spec{
		Name: "jess",
		Desc: "A Java version of NASA's CLIPS rule-based expert system.",
		Seed: 505,
		Leaves: []LeafSpec{
			// match band: 16 K (4+8 KB).
			{Name: "alpha", Kind: Probe, FootprintWords: 4 * wordsPerKB, Iters: 650},
			{Name: "beta", Kind: Probe, FootprintWords: 4 * wordsPerKB, Iters: 600, Pad: 1},
			// act band: 8 K (2+4 KB).
			{Name: "agenda", Kind: SeqRead, FootprintWords: 2 * wordsPerKB, Stride: 1, Repeats: 4},
			{Name: "assert", Kind: SeqWrite, FootprintWords: 2 * wordsPerKB, Stride: 1, Repeats: 4},
			// rete band: 32 K (8+8 KB).
			{Name: "net", Kind: Probe, FootprintWords: 8 * wordsPerKB, Iters: 650},
			{Name: "join", Kind: SeqRead, FootprintWords: 8 * wordsPerKB, Stride: 1, Repeats: 1},
			// Indifferent.
			{Name: "fire", Kind: Compute, Iters: 650, Pad: 2},
			{Name: "wm", Kind: Probe, FootprintWords: 128 * wordsPerKB, Iters: 320, Pad: 2},
		},
		Phases: []PhaseSpec{
			{Name: "match", OnceRuns: []LeafRun{{7, 2}}, Runs: []LeafRun{{0, 2}, {1, 2}, {6, 1}}, Reps: 7, ChunkLeaf: -1},
			{Name: "act", OnceRuns: []LeafRun{{7, 1}}, Runs: []LeafRun{{2, 2}, {3, 2}}, Reps: 8, ChunkLeaf: -1},
			{Name: "rete", OnceRuns: []LeafRun{{7, 2}}, Runs: []LeafRun{{4, 2}, {5, 2}, {6, 1}}, Reps: 7, ChunkLeaf: -1},
		},
		TransPool:           10,
		TransFootprintWords: 256,
		Script: []Step{
			{Phase: 0, Reps: 4, TransMix: []int{0, 1, 2}, TransReps: 14},
			{Phase: 1, Reps: 4},
			{Phase: 2, Reps: 3, TransMix: []int{3, 4, 5}, TransReps: 14},
		},
		MainLoops: 27,
	}
}

// Mpeg models 222_mpegaudio: streaming MP3 decode — sequential
// buffers plus a compute-heavy filterbank, extremely regular.
func Mpeg() Spec {
	return Spec{
		Name: "mpeg",
		Desc: "The core algorithm for software that decodes an MPEG-3 audio stream.",
		Seed: 606,
		Leaves: []LeafSpec{
			// decode band: 16 K (8+4 KB).
			{Name: "huffman", Kind: SeqRead, FootprintWords: 4 * wordsPerKB, Stride: 1, Repeats: 2, Pad: 1},
			{Name: "dequant", Kind: SeqRead, FootprintWords: 4 * wordsPerKB, Stride: 1, Repeats: 2, Pad: 2},
			// filter band: 32 K (8+8 KB).
			{Name: "synth", Kind: SeqWrite, FootprintWords: 8 * wordsPerKB, Stride: 1, Repeats: 1, Pad: 1},
			{Name: "poly", Kind: SeqRead, FootprintWords: 8 * wordsPerKB, Stride: 1, Repeats: 1},
			// Indifferent.
			{Name: "imdct", Kind: Compute, Iters: 550, Pad: 3},
			{Name: "stream", Kind: SeqRead, FootprintWords: 4 * wordsPerKB, Stride: 1, Repeats: 1, ArgBase: true},
		},
		Phases: []PhaseSpec{
			{Name: "decode", Runs: []LeafRun{{0, 2}, {1, 2}, {4, 2}}, Reps: 6, ChunkLeaf: -1},
			{Name: "filter", Runs: []LeafRun{{2, 2}, {3, 2}, {4, 1}}, Reps: 8, ChunkLeaf: -1},
			{Name: "input", Runs: []LeafRun{{0, 2}}, Reps: 1, ChunkLeaf: 5, RegionWords: 64 * wordsPerKB},
		},
		TransPool:           6,
		TransFootprintWords: 128,
		Script: []Step{
			{Phase: 2, Reps: 6},
			{Phase: 0, Reps: 4},
			{Phase: 1, Reps: 4, TransMix: []int{0, 1}, TransReps: 10},
		},
		MainLoops: 28,
	}
}

// Mtrt models 227_mtrt: a dual-threaded ray tracer probing a large
// resident scene. The two "slice" phases sit just below the L2 size
// class, keeping part of the execution outside L2 hotspots so BBV
// wins L2, as in the paper.
func Mtrt() Spec {
	return Spec{
		Name: "mtrt",
		Desc: "A dual-threaded program that ray traces an image file.",
		Seed: 707,
		Leaves: []LeafSpec{
			// slice/shadepass band: 16 K (4+4+4 KB).
			{Name: "shade", Kind: Probe, FootprintWords: 4 * wordsPerKB, Iters: 650},
			{Name: "frame", Kind: SeqWrite, FootprintWords: 4 * wordsPerKB, Stride: 1, Repeats: 2},
			{Name: "tex", Kind: SeqRead, FootprintWords: 4 * wordsPerKB, Stride: 1, Repeats: 2},
			// trace band: 32 K (8+8 KB).
			{Name: "isect", Kind: Probe, FootprintWords: 8 * wordsPerKB, Iters: 650, Pad: 1},
			{Name: "bvh", Kind: Probe, FootprintWords: 8 * wordsPerKB, Iters: 600},
			// Indifferent.
			{Name: "ray", Kind: Compute, Iters: 550, Pad: 2},
			{Name: "scene", Kind: Probe, FootprintWords: 256 * wordsPerKB, Iters: 320, Pad: 2},
		},
		Phases: []PhaseSpec{
			// The two thread slices: just under the L2 class.
			{Name: "slice0", Runs: []LeafRun{{5, 2}, {0, 2}, {1, 2}}, Reps: 1, ChunkLeaf: -1},
			{Name: "slice1", Runs: []LeafRun{{5, 2}, {0, 2}, {2, 2}}, Reps: 1, ChunkLeaf: -1},
			{Name: "trace", OnceRuns: []LeafRun{{6, 3}}, Runs: []LeafRun{{3, 2}, {4, 2}, {5, 1}}, Reps: 7, ChunkLeaf: -1},
			{Name: "shadepass", OnceRuns: []LeafRun{{6, 2}}, Runs: []LeafRun{{0, 2}, {2, 2}, {1, 1}, {5, 1}}, Reps: 6, ChunkLeaf: -1},
		},
		TransPool:           6,
		TransFootprintWords: 128,
		Script: []Step{
			{Phase: 0, Reps: 14},
			{Phase: 1, Reps: 14},
			{Phase: 2, Reps: 3},
			{Phase: 3, Reps: 4, TransMix: []int{0, 1}, TransReps: 8},
		},
		MainLoops: 34,
	}
}
