// Command perfbench is the repository benchmark: one workload per run,
// generated from a seed, measured end to end with tracing off, or layer by
// layer with tracing on. Run it from the repository root:
//
//	bash perfbench/run.sh --workload repeat-sw --seed 1 --seconds 10 --trace 0
//
// Each run generates its reads and contigs through internal/genome (never
// timed), writes any snapshot artifacts its setup opens (never timed),
// brings the system up several times to time setup, checks that outputs
// are correct, and then measures. It prints every metric by name with its
// unit, a provenance line, and as its last line one JSON object with the
// keys correct, attempted, failed and metrics. It exits non-zero when the
// correctness gate fails.
//
// The untraced run (--trace 0) measures one closed loop for the whole of
// --seconds: on serve-open, FASTQ requests asking for SAM from 16 clients
// through service.Server.ServeHTTP in process; on the other workloads,
// decode+align+render passes over the whole read set through the library
// (seqio.ReadFastq, Aligner.AlignWorkers, SAMStream).
//
// The traced run (--trace 1) times each layer from outside, through the
// program's public calls and seams (see traced.go). It also drives the
// service open-loop on a fixed ladder of offered rates, and prints the
// latency and max-rate figures as notes: on a shared two-CPU host they
// spread too widely from run to run to carry a bound.
//
// GOMAXPROCS and every engine pool are 2. The load uses goroutines, not
// threads or sockets; dht-remote's client holds one connection per seed
// shard (two).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/lbl-repro/meraligner/internal/dna"
	"github.com/lbl-repro/meraligner/internal/eval"
	"github.com/lbl-repro/meraligner/internal/genome"
	"github.com/lbl-repro/meraligner/internal/seqio"
)

func main() {
	name := flag.String("workload", "", "workload: repeat-sw, exact-lookup, serve-open or dht-remote")
	seed := flag.Int64("seed", 1, "input generation seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()
	runtime.GOMAXPROCS(engineWorkers)

	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
		os.Exit(2)
	}
	rep, err := run(w, *seed, float64(*seconds), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
	if !rep.correct {
		os.Exit(1)
	}
}

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
}

type report struct {
	correct    bool
	problems   []string
	attempted  int
	failed     int
	metrics    []metric
	provenance map[string]any
	notes      []string

	evalAligned, evalCorrect float64   // from the correctness gate
	passRates                []float64 // reads/s of each untraced batch pass
}

func (r *report) add(name string, v float64, unit string) {
	r.metrics = append(r.metrics, metric{name, v, unit})
}

func (r *report) fail(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) print(f *os.File) {
	for _, n := range r.notes {
		fmt.Fprintln(f, "note:", n)
	}
	for _, p := range r.problems {
		fmt.Fprintln(f, "INCORRECT:", p)
	}
	for _, m := range r.metrics {
		fmt.Fprintf(f, "%-28s %16.6g %s\n", m.name, m.value, m.unit)
	}
	if prov, err := json.Marshal(r.provenance); err == nil {
		fmt.Fprintf(f, "provenance: %s\n", prov)
	}
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`, r.correct, r.attempted, r.failed)
	for i, m := range r.metrics {
		if i > 0 {
			b.WriteString(", ")
		}
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // already reported as a problem; JSON has no NaN
		}
		fmt.Fprintf(&b, `%q: {"value": %s, "unit": %q}`, m.name, strconv.FormatFloat(v, 'g', -1, 64), m.unit)
	}
	b.WriteString("}}")
	fmt.Fprintln(f, b.String())
}

// input is a workload's generated data, in the forms the system receives.
type input struct {
	ds     *genome.DataSet
	fastq  []byte   // the whole read set, for the library path
	bodies [][]byte // distinct 8-read FASTQ request bodies, for the service
}

// maxBodies bounds the distinct request bodies; the correctness gate
// checks each one, and the ladder cycles through them.
const maxBodies = 200

// generate builds the workload's reference and read pool, then draws this
// run's reads from the pool with the seed: a seeded shuffle, truncated to
// the batch size.
func generate(w workload, seed int64) (*input, error) {
	ds, err := genome.Generate(w.profile())
	if err != nil {
		return nil, err
	}
	genome.Shuffle(rand.New(rand.NewSource(seed)), ds.Reads, ds.Origins)
	n := min(w.batchReads, len(ds.Reads))
	// Copies, so the rest of the pool and the genome are garbage before
	// anything is timed.
	ds.Reads = append([]seqio.Seq(nil), ds.Reads[:n]...)
	ds.Origins = append([]genome.ReadOrigin(nil), ds.Origins[:n]...)
	ds.Genome = dna.Packed{}
	in := &input{ds: ds}
	var buf bytes.Buffer
	if err := seqio.WriteFastq(&buf, ds.Reads); err != nil {
		return nil, err
	}
	in.fastq = buf.Bytes()
	for lo := 0; lo+w.readsPerRequest <= len(ds.Reads) && len(in.bodies) < maxBodies; lo += w.readsPerRequest {
		var b bytes.Buffer
		if err := seqio.WriteFastq(&b, ds.Reads[lo:lo+w.readsPerRequest]); err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, b.Bytes())
	}
	return in, nil
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// Setup is repeated at least minSetups times and until setupBudget has
// passed, at most maxSetups times; setup_s is the median.
const (
	minSetups   = 5
	maxSetups   = 40
	setupBudget = time.Second
)

func run(w workload, seed int64, seconds float64, traced bool) (*report, error) {
	rep := &report{correct: true}
	in, err := generate(w, seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "perfbench-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	art, err := writeArtifacts(w, in.ds.Contigs, dir)
	if err != nil {
		return nil, fmt.Errorf("writing artifacts: %w", err)
	}

	// Setup, repeated; the last system stays up.
	var setups, opens, warms []float64
	var sys *system
	begin := time.Now()
	for i := 0; i < maxSetups && (i < minSetups || time.Since(begin) < setupBudget); i++ {
		if sys != nil {
			sys.close()
		}
		runtime.GC() // collect the previous system outside the timed interval
		t0 := time.Now()
		sys, err = setup(w, in.ds.Contigs, art)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		opens = append(opens, sys.openS)
		warms = append(warms, sys.warmS)
	}
	defer sys.close()
	ctx := context.Background()

	gate(ctx, rep, w, in, sys, traced)
	if !rep.correct {
		rep.attempted = len(in.ds.Reads)
		rep.failed = len(in.ds.Reads)
		return rep, nil
	}

	if traced {
		err = tracedRun(ctx, rep, w, in, sys, art, dir, seconds, median(opens), median(warms))
	} else {
		err = plainRun(ctx, rep, w, in, sys, seconds, median(setups))
	}
	if err != nil {
		return nil, err
	}
	rep.provenance = provenance(w, seed, traced, setups, rep.passRates)
	return rep, nil
}

// gate is the correctness check that runs before anything is timed. Any
// mismatch marks the run incorrect.
func gate(ctx context.Context, rep *report, w workload, in *input, sys *system, traced bool) {
	p, err := sys.pass(ctx, in.fastq, sys.qopt, true)
	if err != nil {
		rep.fail("library pass: %v", err)
		return
	}
	m := eval.Evaluate(in.ds, p.res, eval.Options{})
	rep.note("eval: %s", m)
	if m.Correct == 0 {
		rep.fail("no read aligned at its true origin")
	}

	local := sys.qopt
	local.SeedResolver = nil
	if sys.qopt.SeedResolver != nil {
		lp, err := sys.pass(ctx, in.fastq, local, true)
		if err != nil {
			rep.fail("local pass: %v", err)
			return
		}
		if lp.digest != p.digest {
			rep.fail("SAM through the seed DHT differs from the local engine's")
		}
	}

	if traced {
		var lt layerTimes
		d, err := sys.tracedPass(ctx, in.fastq, &lt, true)
		if err != nil {
			rep.fail("traced pass: %v", err)
			return
		}
		if d != p.digest {
			rep.fail("SAM of the traced pass differs from the untraced pass")
		}
	}

	// Every distinct request body: the service's SAM must equal a local
	// Align + SAMStream render of the same reads.
	for i, body := range in.bodies {
		got, err := serveSAM(ctx, sys.srv, body, true)
		if err != nil {
			rep.fail("request %d: %v", i, err)
			return
		}
		reads, err := seqio.ReadFastq(bytes.NewReader(body), seqio.ParseOptions{ReplaceN: true})
		if err != nil {
			rep.fail("request %d: decoding: %v", i, err)
			return
		}
		res, err := sys.al.AlignWorkers(ctx, engineWorkers, reads, local)
		if err != nil {
			rep.fail("request %d: local align: %v", i, err)
			return
		}
		var want bytes.Buffer
		if err := render(&want, sys.targets, res, reads); err != nil {
			rep.fail("request %d: local render: %v", i, err)
			return
		}
		if !bytes.Equal(got, want.Bytes()) {
			rep.fail("request %d: served SAM differs from the local render", i)
			return
		}
	}
	rep.evalAligned, rep.evalCorrect = m.AlignedFraction(), float64(m.Correct)/float64(m.Total)
}

// serveRequest is one open-loop or closed-loop request to the service.
func (s *system) serveRequest(ctx context.Context, body []byte) error {
	_, err := serveSAM(ctx, s.srv, body, false)
	return err
}

// batchPhase runs untraced passes until budget seconds have passed (at
// least three) and returns the per-pass read rates.
func batchPhase(ctx context.Context, sys *system, in *input, budget float64) (rates []float64, reads int, cpu float64, err error) {
	c0 := cpuSeconds()
	t0 := time.Now()
	for len(rates) < 3 || time.Since(t0).Seconds() < budget {
		p, err := sys.pass(ctx, in.fastq, sys.qopt, false)
		if err != nil {
			return nil, 0, 0, err
		}
		rates = append(rates, float64(p.res.TotalReads)/p.wall)
		reads += p.res.TotalReads
	}
	return rates, reads, cpuSeconds() - c0, nil
}

// plainRun is the untraced run: the end-to-end metrics. serve-open
// measures the service path (decode, admission, micro-batching, render per
// request) in a closed loop; the other workloads measure the library path
// in whole-read-set passes.
func plainRun(ctx context.Context, rep *report, w workload, in *input, sys *system, seconds, setupS float64) error {
	runtime.GC()
	var rates []float64
	var reads int
	var cpu float64
	var err error
	if w.source == opened {
		var cl closedLoopResult
		cl, err = closedLoop(ctx, sys, in.bodies, w.readsPerRequest, seconds)
		rates, reads, cpu = cl.rates, cl.reads, cl.cpu
		rep.attempted, rep.failed = cl.requests, cl.failed
	} else {
		rates, reads, cpu, err = batchPhase(ctx, sys, in, seconds)
		rep.attempted = reads
	}
	if err != nil {
		return err
	}
	rep.passRates = rates
	rep.add("reads_per_s", median(rates), "1/s")
	rep.add("cpu_us_per_read", cpu/float64(reads)*1e6, "us")
	rep.add("setup_s", setupS, "s")
	rep.add("aligned_frac", rep.evalAligned, "frac")
	rep.add("correct_frac", rep.evalCorrect, "frac")
	rep.add("peak_rss_mb", peakRSSMB(), "MB")
	return nil
}
