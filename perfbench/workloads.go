package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	meraligner "github.com/lbl-repro/meraligner"
	"github.com/lbl-repro/meraligner/internal/core"
	"github.com/lbl-repro/meraligner/internal/dhtnet"
	"github.com/lbl-repro/meraligner/internal/genome"
	"github.com/lbl-repro/meraligner/internal/service"
)

// engineWorkers is the engine pool of every batch Align call and of the
// service's coalesced calls; GOMAXPROCS is pinned to the same value.
const engineWorkers = 2

// seedShards is the size of the dht-remote seed-shard fleet.
const seedShards = 2

// indexSource is how a workload's system comes up, which is what its
// setup_s measures.
type indexSource int

const (
	built  indexSource = iota // Build over the generated contigs
	opened                    // Open a .merx snapshot written beforehand
	remote                    // Open + seed-shard fleet on loopback + dhtnet Warm
)

// workload is one set of generated inputs and the path they take.
type workload struct {
	name string
	k    int
	// profile generates the workload's reference and a pool of reads
	// about 1.1 times batchReads. Its own Seed is the genome package's
	// default, so the reference is the same in every run, and --seed draws
	// the run's reads from the pool (see generate). With the reference
	// drawn per seed too, how much of 1 Mbp a few dozen 60 kbp contigs
	// happen to cover would swamp every measurement; with a pool much
	// larger than the read set, the share of costly repeat reads would.
	profile func() genome.Profile
	source  indexSource
	// batchReads is the read set of one decode+align+render pass.
	batchReads int
	// readsPerRequest is the size of one service request. serve-open
	// sends 8 reads; the slower repeat-sw and dht-remote send 2, so that
	// their low ladder step still collects its requests in a few seconds.
	readsPerRequest int
	// knee is the offered request rate at which p99 crossed p99LimitMs
	// when the benchmark was defined. It fixes the workload's ladder (see
	// ladder); it is a constant of the benchmark, not a measurement.
	knee float64
}

// The four workloads. Each stresses a different layer (see the why lines
// in BENCHMARK.json): repeat-sw is extend-bound, exact-lookup bypasses
// extend, serve-open is the per-request serving path over a mapped
// snapshot, and dht-remote is exact-lookup with every seed lookup made
// remote.
var workloads = []workload{
	{
		name: "repeat-sw", k: 31, source: built,
		profile: func() genome.Profile {
			p := genome.WheatLike(1_000_000) // 25% repeats, 150 bp, default error
			p.InsertMean, p.InsertSD = 0, 0  // unpaired
			p.Depth = 0.495
			return p
		},
		batchReads:      3000,
		readsPerRequest: 2,
		knee:            720,
	},
	{
		name: "exact-lookup", k: 31, source: built,
		profile:         exactLookupProfile,
		batchReads:      20000,
		readsPerRequest: 8,
		knee:            3300,
	},
	{
		name: "serve-open", k: 19, source: opened,
		profile: func() genome.Profile {
			p := genome.EColiLike() // the Fig 11 genome, scaled to 1 Mbp
			p.GenomeLen = 1_000_000
			p.Depth = 0.88
			return p
		},
		batchReads:      8000,
		readsPerRequest: 8,
		knee:            650,
	},
	{
		name: "dht-remote", k: 31, source: remote,
		profile:         exactLookupProfile,
		batchReads:      4000,
		readsPerRequest: 2,
		knee:            750,
	},
}

// exactLookupProfile is error-free and repeat-free, with long contigs
// leaving 30% of the genome uncovered: reads either resolve by one lookup
// plus a compare, or miss every seed.
func exactLookupProfile() genome.Profile {
	p := genome.HumanLike(1_000_000)
	p.ErrorRate = 0
	p.RepeatFraction = 0
	p.ContigMean = 60_000
	p.Uncovered = 0.3
	p.InsertMean, p.InsertSD = 0, 0
	p.Depth = 2.222
	return p
}

// ladder is the fixed list of offered request rates (req/s, ascending) of
// the traced run's open loop. The first two steps, at one and two thirds
// of the knee, give the .low and .high latencies and the service's spans.
// The rest climb from three quarters of the knee in 6% steps to half again
// past it; they only decide max_rate_rps, so their spacing is its
// resolution.
func (w workload) ladder() []float64 {
	rates := []float64{math.Round(w.knee / 3), math.Round(2 * w.knee / 3)}
	for r := 0.75 * w.knee; r <= 1.5*w.knee; r *= 1.06 {
		rates = append(rates, math.Round(r))
	}
	return rates
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// artifacts are the files a workload's setup opens. They are written
// before anything is timed, like a deployment's index build.
type artifacts struct {
	index       string   // .merx snapshot (opened, remote)
	seedShards  []string // seed-shard snapshots (remote)
	fingerprint uint64
	tableShards int
	buildPhases []phase // from the build that wrote the artifacts
}

type phase struct {
	name string
	wall float64
}

func buildPhases(al *meraligner.Aligner) []phase {
	var out []phase
	for _, p := range al.BuildPhases() {
		out = append(out, phase{p.Name, p.Wall})
	}
	return out
}

func indexOptions(w workload) meraligner.IndexOptions { return meraligner.DefaultIndexOptions(w.k) }

// queryOptions is the one query configuration every path of the benchmark
// uses; alignments are collected because every path renders SAM.
func queryOptions() meraligner.QueryOptions {
	q := meraligner.DefaultQueryOptions()
	q.CollectAlignments = true
	return q
}

func writeArtifacts(w workload, contigs []meraligner.Seq, dir string) (*artifacts, error) {
	art := &artifacts{}
	if w.source == built {
		return art, nil
	}
	al, err := meraligner.Build(engineWorkers, indexOptions(w), contigs)
	if err != nil {
		return nil, err
	}
	defer al.Close()
	art.buildPhases = buildPhases(al)
	art.index = filepath.Join(dir, "index.merx")
	if err := al.Save(art.index); err != nil {
		return nil, err
	}
	if w.source == remote {
		if art.seedShards, err = al.SaveSeedShards(filepath.Join(dir, "seeds"), seedShards); err != nil {
			return nil, err
		}
		if art.fingerprint, err = al.SeedPartitionFingerprint(seedShards); err != nil {
			return nil, err
		}
		art.tableShards = al.SeedTableShards()
	}
	return art, nil
}

// system is one workload's running system: the aligner the library path
// calls, the service the open loop drives, and for dht-remote the seed
// fleet and its client.
type system struct {
	al      *meraligner.Aligner
	targets []meraligner.Seq
	qopt    meraligner.QueryOptions // SeedResolver set on dht-remote
	srv     *service.Server
	dc      *dhtnet.Client
	fleet   []*loopback
	warmS   float64 // dhtnet Warm alone, remote only
	openS   float64 // Open alone, opened and remote only
}

// traceCapacity holds every request of the largest ladder step, so the
// traced run can read the spans of one whole step back from the ring.
const traceCapacity = 8192

// setup brings the system up: the interval setup_s measures.
func setup(w workload, contigs []meraligner.Seq, art *artifacts) (*system, error) {
	s := &system{qopt: queryOptions()}
	var err error
	switch w.source {
	case built:
		s.al, err = meraligner.Build(engineWorkers, indexOptions(w), contigs)
	default:
		t0 := time.Now()
		s.al, err = meraligner.OpenThreads(engineWorkers, art.index)
		s.openS = time.Since(t0).Seconds()
	}
	if err != nil {
		return nil, err
	}
	s.targets = s.al.Targets()
	if w.source == remote {
		if err := s.startFleet(w, art); err != nil {
			s.close()
			return nil, err
		}
		s.qopt.SeedResolver = s.dc
	}
	s.srv, err = service.New(service.Config{
		Aligner:       s.al,
		Query:         s.qopt,
		Workers:       engineWorkers,
		TraceCapacity: traceCapacity,
	})
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *system) startFleet(w workload, art *artifacts) error {
	owners := make([]string, 0, len(art.seedShards))
	for _, p := range art.seedShards {
		sh, err := core.LoadSeedShard(p)
		if err != nil {
			return err
		}
		h, err := service.NewSeedShard(service.SeedShardConfig{Shard: sh})
		if err != nil {
			sh.Close()
			return err
		}
		lb, err := serveLoopback(h, func() { sh.Close() })
		if err != nil {
			sh.Close()
			return err
		}
		s.fleet = append(s.fleet, lb)
		owners = append(owners, lb.base)
	}
	var err error
	s.dc, err = dhtnet.New(dhtnet.Config{
		Owners:      owners,
		K:           w.k,
		Shards:      art.tableShards,
		Fingerprint: art.fingerprint,
		// One connection per owner keeps the load side at seedShards
		// sockets, no more than the CPUs it runs on.
		HTTPClient: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	t0 := time.Now()
	if err := s.dc.Warm(ctx); err != nil {
		return fmt.Errorf("warming the seed-shard client: %w", err)
	}
	s.warmS = time.Since(t0).Seconds()
	return nil
}

// close stops everything setup started and waits for it.
func (s *system) close() {
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = s.srv.Drain(ctx) // nothing is in flight once a phase has returned
		cancel()
	}
	s.stopFleet()
	if s.al != nil {
		s.al.Close()
	}
}

// stopFleet closes the seed-lookup client and stops the seed shards.
func (s *system) stopFleet() {
	if s.dc != nil {
		s.dc.Close()
	}
	for _, lb := range s.fleet {
		lb.stop()
	}
}

// loopback is one HTTP handler served on 127.0.0.1.
type loopback struct {
	base string
	stop func()
}

func serveLoopback(h http.Handler, after func()) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: seed shard server:", err)
		}
	}()
	return &loopback{
		base: "http://" + ln.Addr().String(),
		stop: func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			_ = hs.Shutdown(ctx) // after Shutdown returns or times out, Close drops what is left
			cancel()
			hs.Close()
			<-done
			after()
		},
	}, nil
}
