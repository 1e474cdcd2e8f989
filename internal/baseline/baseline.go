// Package baseline implements the competing aligners of §VI-D — a
// BWA-mem-like and a Bowtie2-like seed-and-extend mapper over a serially
// constructed FM-index — plus the pMap-style execution model (one master
// partitioning reads, index replicated per instance, instances bounded by
// node memory) used for Table II and the single data points of Fig 1.
//
// The reimplementations reproduce the structural properties the paper's
// comparison rests on: (1) index construction is SERIAL, (2) every pMap
// instance must hold a full index replica, limiting instances per node,
// (3) the mapping phase is embarrassingly parallel over reads. Alignment
// quality machinery (chaining, mate rescue, quality scores) is out of
// scope; seeding parameters mirror the paper's configuration (minimum seed
// length 51 for BWA-mem, 31 + --very-fast for Bowtie2).
package baseline

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/lbl-repro/meraligner/internal/align"
	"github.com/lbl-repro/meraligner/internal/dna"
	"github.com/lbl-repro/meraligner/internal/fmindex"
	"github.com/lbl-repro/meraligner/internal/seqio"
)

// Tool selects the baseline flavor.
type Tool int

const (
	// BWAMemLike mimics BWA-mem with minimum seed length 51 (§VI-D).
	BWAMemLike Tool = iota
	// Bowtie2Like mimics Bowtie2 --very-fast with seed length 31.
	Bowtie2Like
)

func (t Tool) String() string {
	if t == BWAMemLike {
		return "bwamem-like"
	}
	return "bowtie2-like"
}

// Options parameterizes a baseline mapper.
type Options struct {
	Tool       Tool
	SeedLen    int
	SeedStride int
	MaxOcc     int // seeds with more occurrences are skipped
	Scoring    align.Scoring
	MinScore   int // 0 defaults to SeedLen
	ExtendPad  int
}

// BWAMemOptions returns the paper's BWA-mem configuration.
func BWAMemOptions() Options {
	return Options{Tool: BWAMemLike, SeedLen: 51, SeedStride: 17, MaxOcc: 500,
		Scoring: align.DefaultScoring, ExtendPad: 24}
}

// Bowtie2Options returns the paper's Bowtie2 --very-fast configuration.
func Bowtie2Options() Options {
	return Options{Tool: Bowtie2Like, SeedLen: 31, SeedStride: 16, MaxOcc: 200,
		Scoring: align.DefaultScoring, ExtendPad: 24}
}

func (o Options) minScore() int {
	if o.MinScore > 0 {
		return o.MinScore
	}
	return o.SeedLen
}

// Alignment is one baseline-reported alignment.
type Alignment struct {
	Query  int32
	Target int32
	RC     bool
	Score  int32
	QStart int32
	QEnd   int32
	TStart int32
	TEnd   int32
}

// Ref is the indexed reference: the FM-index over the concatenation of all
// targets plus the contig boundary table.
type Ref struct {
	FM      *fmindex.FM
	text    []byte  // concatenated 2-bit codes of all targets
	starts  []int32 // starts[i] = offset of target i; starts[n] = len(text)
	targets []seqio.Seq

	BuildWall time.Duration // real serial construction time
}

// BuildIndex constructs the reference index serially — mirroring the serial
// `bwa index` / `bowtie2-build` step that dominates Table II.
func BuildIndex(targets []seqio.Seq) (*Ref, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("baseline: no targets")
	}
	start := time.Now()
	total := 0
	for _, t := range targets {
		total += t.Seq.Len()
	}
	r := &Ref{targets: targets, text: make([]byte, 0, total), starts: make([]int32, 0, len(targets)+1)}
	for _, t := range targets {
		r.starts = append(r.starts, int32(len(r.text)))
		r.text = t.Seq.AppendCodes(r.text)
	}
	r.starts = append(r.starts, int32(len(r.text)))
	fm, err := fmindex.New(r.text)
	if err != nil {
		return nil, err
	}
	r.FM = fm
	r.BuildWall = time.Since(start)
	return r, nil
}

// NumTargets returns the number of indexed targets.
func (r *Ref) NumTargets() int { return len(r.targets) }

// TextLen returns the concatenated reference length.
func (r *Ref) TextLen() int { return len(r.text) }

// contigOf maps a concatenated-text position to (target, offset).
func (r *Ref) contigOf(pos int32) (int32, int32) {
	i := sort.Search(len(r.starts)-1, func(i int) bool { return r.starts[i+1] > pos })
	return int32(i), pos - r.starts[i]
}

// targetCodes returns the code slice of target t (a view into the text).
func (r *Ref) targetCodes(t int32) []byte { return r.text[r.starts[t]:r.starts[t+1]] }

// MapStats tallies one mapping run.
type MapStats struct {
	Aligned         int64
	TotalAlignments int64
	SWCalls         int64
	SWCells         int64
	SeedSearches    int64
}

type baselineCand struct {
	target int32
	diag   int32
	rc     bool
}

// MapRead aligns one read against the reference on both strands, returning
// its alignments (qi is recorded in the output records).
func (r *Ref) MapRead(qi int32, q dna.Packed, opt Options, st *MapStats) []Alignment {
	L := q.Len()
	if L < opt.SeedLen {
		return nil
	}
	var out []Alignment
	seen := map[baselineCand]struct{}{}
	for _, rc := range []bool{false, true} {
		var qc []byte
		if rc {
			qc = q.ReverseComplement().Codes()
		} else {
			qc = q.Codes()
		}
		// Seed positions: fixed stride plus a final seed flush at the end
		// of the read so the tail is always covered.
		for s := 0; ; s += opt.SeedStride {
			if s+opt.SeedLen > L {
				if s-opt.SeedStride+opt.SeedLen < L { // tail seed
					s = L - opt.SeedLen
				} else {
					break
				}
			}
			atomic.AddInt64(&st.SeedSearches, 1)
			pat := qc[s : s+opt.SeedLen]
			lo, hi := r.FM.Count(pat)
			n := int(hi - lo)
			if n == 0 || (opt.MaxOcc > 0 && n > opt.MaxOcc) {
				if s == L-opt.SeedLen {
					break
				}
				continue
			}
			for i := 0; i < n; i++ {
				pos := r.FM.TextPos(lo + int32(i))
				tgt, off := r.contigOf(pos)
				if int(off)+opt.SeedLen > len(r.targetCodes(tgt)) {
					continue // seed spans a contig boundary
				}
				key := baselineCand{target: tgt, diag: off - int32(s), rc: rc}
				if _, dup := seen[key]; dup {
					continue
				}
				seen[key] = struct{}{}
				tc := r.targetCodes(tgt)
				res := align.ExtendSeed(qc, tc, s, int(off), opt.SeedLen, opt.Scoring, opt.ExtendPad)
				winLo, winHi := align.SeedWindow(L, s, int(off), len(tc), opt.ExtendPad)
				atomic.AddInt64(&st.SWCalls, 1)
				atomic.AddInt64(&st.SWCells, align.Cells(L, winHi-winLo))
				if res.Score < opt.minScore() {
					continue
				}
				dup := false
				for _, a := range out {
					if a.Target == tgt && a.RC == rc && int(a.TStart) == res.TStart && int(a.QStart) == res.QStart {
						dup = true
						break
					}
				}
				if !dup {
					out = append(out, Alignment{
						Query: qi, Target: tgt, RC: rc, Score: int32(res.Score),
						QStart: int32(res.QStart), QEnd: int32(res.QEnd),
						TStart: int32(res.TStart), TEnd: int32(res.TEnd),
					})
				}
			}
			if s == L-opt.SeedLen {
				break
			}
		}
	}
	if len(out) > 0 {
		atomic.AddInt64(&st.Aligned, 1)
		atomic.AddInt64(&st.TotalAlignments, int64(len(out)))
	}
	return out
}

// SingleNodeResult is one Fig 11 measurement: serial index construction
// plus threaded mapping on the host.
type SingleNodeResult struct {
	Tool       Tool
	Threads    int
	BuildWall  time.Duration // serial
	MapWall    time.Duration // parallel over reads
	Stats      MapStats
	SearchOps  fmindex.Ops // FM probes + locate steps during mapping
	BuildOps   fmindex.Ops // construction work
	IndexBytes int64       // replica size a pMap instance must hold
}

// TotalWall returns build + map, the Fig 11 y-axis.
func (s SingleNodeResult) TotalWall() time.Duration { return s.BuildWall + s.MapWall }

// RunSingleNode builds the index serially and maps all reads with the given
// number of real goroutines, measuring wall-clock time for both phases.
func RunSingleNode(threads int, targets, reads []seqio.Seq, opt Options) (*SingleNodeResult, error) {
	if threads <= 0 {
		return nil, fmt.Errorf("baseline: threads must be positive")
	}
	ref, err := BuildIndex(targets)
	if err != nil {
		return nil, err
	}
	res := &SingleNodeResult{Tool: opt.Tool, Threads: threads, BuildWall: ref.BuildWall,
		BuildOps: ref.FM.BuildOps, IndexBytes: ref.FM.IndexBytes()}

	opsBefore := ref.FM.Ops
	start := time.Now()
	var next int64
	var wg sync.WaitGroup
	workers := threads
	if workers > len(reads) {
		workers = len(reads)
	}
	const block = 64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(atomic.AddInt64(&next, block)) - block
				if lo >= len(reads) {
					return
				}
				hi := min(lo+block, len(reads))
				for i := lo; i < hi; i++ {
					r := reads[i]
					_ = ref.MapRead(int32(i), r.Seq, opt, &res.Stats)
				}
			}
		}()
	}
	wg.Wait()
	res.MapWall = time.Since(start)
	res.SearchOps = fmindex.Ops{
		FMProbes:    ref.FM.Ops.FMProbes - opsBefore.FMProbes,
		LocateSteps: ref.FM.Ops.LocateSteps - opsBefore.LocateSteps,
	}
	runtime.KeepAlive(ref)
	return res, nil
}
