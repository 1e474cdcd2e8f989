package expt

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	meraligner "github.com/lbl-repro/meraligner"
	"github.com/lbl-repro/meraligner/internal/core"
	"github.com/lbl-repro/meraligner/internal/dhtnet"
	"github.com/lbl-repro/meraligner/internal/seqio"
	"github.com/lbl-repro/meraligner/internal/service"
)

// DHTNet measures the network seed DHT (post-paper: the paper's §IV
// distributed seed index, where every lookup is a remote aggregated fetch,
// recast over loopback HTTP). The same reads are aligned twice by the same
// engine: once against the local seed table, once with every seed lookup
// resolved through a 3-node seed-shard fleet. Output byte-identity is
// checked before anything is timed — the tier's contract is that seed
// partitioning is invisible to alignment results.
func DHTNet(cfg Config) (*Report, error) {
	rep := &Report{
		ID:    "dhtnet",
		Title: "network seed DHT: 3-node seed-shard fleet vs the local seed table (loopback HTTP)",
		Paper: "post-paper experiment: §IV distributes the k-mer seed index across nodes and batches " +
			"remote lookups through aggregated stores; here the seed table is hash-partitioned across " +
			"merserved -seed-shard nodes and the engine's lookups, aggregated per work chunk, ride a coalescing RPC client",
		Headers: []string{"seed store", "reads/s", "lookups", "frames", "seeds/frame", "direct", "retries"},
	}
	ds, err := mkData(cfg.ecoliProfile())
	if err != nil {
		return nil, err
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	opt := core.DefaultOptions(19)
	opt.MaxSeedHits = 200

	reads := ds.Reads
	maxReads := 4000
	if cfg.Quick {
		maxReads = 800
	}
	if len(reads) > maxReads {
		reads = reads[:maxReads]
	}

	cmp, err := RunDHTNetComparison(workers, opt, ds.Contigs, reads, 3)
	if err != nil {
		return nil, err
	}
	if !cmp.Identical {
		return nil, errors.New("expt: DHT-resolved SAM differs from the local engine's — the tier is broken, refusing to report timings")
	}
	rep.AddRow("local table",
		fmt.Sprintf("%.0f", cmp.Local.ReadsPerSec), "-", "-", "-", "-", "-")
	perFrame := 0.0
	if cmp.Lookup.Batches > 0 {
		perFrame = float64(cmp.Lookup.BatchedSeeds) / float64(cmp.Lookup.Batches)
	}
	rep.AddRow(fmt.Sprintf("dht x%d", cmp.Nodes),
		fmt.Sprintf("%.0f", cmp.Remote.ReadsPerSec),
		fmt.Sprintf("%d", cmp.Lookup.Seeds),
		fmt.Sprintf("%d", cmp.Lookup.Batches),
		fmt.Sprintf("%.1f", perFrame),
		fmt.Sprintf("%d", cmp.Lookup.Direct),
		fmt.Sprintf("%d", cmp.Lookup.Retries))
	rep.Note("%d reads, k=%d; SAM byte-identity between local and DHT-resolved runs verified before timing", len(reads), opt.IndexOptions.K)
	rep.Note("all %d seed-shard nodes share one host, so the dht row measures lookup RPC overhead (framing, HTTP, coalescing), not scale-out — on N hosts each node holds 1/N of the seed table, the paper's answer to seed tables that fit no single node", cmp.Nodes)
	rep.Note("seeds/frame is the coalescer's aggregation factor: per-read seed groups from concurrent workers merged into shared wire frames, the software analogue of the paper's aggregated remote stores")
	return rep, nil
}

// DHTNetRun is one timed alignment pass.
type DHTNetRun struct {
	ReadsPerSec float64
	WallS       float64
}

// DHTNetComparison is the full local-vs-remote seed resolution measurement
// (shared with the repo-level BENCH_dhtnet.json recorder).
type DHTNetComparison struct {
	Nodes     int  // seed-shard fleet size
	Identical bool // DHT-resolved SAM == local SAM
	Local     DHTNetRun
	Remote    DHTNetRun
	Lookup    dhtnet.Stats // client-side lookup counters for the remote run
}

// RunDHTNetComparison hash-partitions one index's seed table into nodes
// seed-shard snapshots (real `-dht-save` artifacts reopened from disk),
// serves them over loopback HTTP, and aligns the same reads twice: against
// the local table and through the dhtnet client. Returns timings plus the
// client's lookup counters; Identical reports SAM byte-equality.
func RunDHTNetComparison(workers int, opt core.Options, targets, reads []seqio.Seq, nodes int) (*DHTNetComparison, error) {
	if nodes < 1 {
		nodes = 3
	}
	al, err := meraligner.Build(workers, opt.IndexOptions, targets)
	if err != nil {
		return nil, err
	}
	defer al.Close()

	dir, err := os.MkdirTemp("", "merbench-dhtnet-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	paths, err := al.SaveSeedShards(dir, nodes)
	if err != nil {
		return nil, err
	}
	fp, err := al.SeedPartitionFingerprint(nodes)
	if err != nil {
		return nil, err
	}

	owners := make([]string, 0, nodes)
	var fleet []*exptServer
	defer func() {
		for _, s := range fleet {
			s.stop()
		}
	}()
	for _, p := range paths {
		sh, err := core.LoadSeedShard(p)
		if err != nil {
			return nil, err
		}
		srv, err := service.NewSeedShard(service.SeedShardConfig{Shard: sh})
		if err != nil {
			sh.Close()
			return nil, err
		}
		s, err := startExptHandler(srv)
		if err != nil {
			sh.Close()
			return nil, err
		}
		stop := s.stop
		s.stop = func() {
			stop()
			sh.Close()
		}
		fleet = append(fleet, s)
		owners = append(owners, s.base)
	}

	dc, err := dhtnet.New(dhtnet.Config{
		Owners:      owners,
		K:           opt.IndexOptions.K,
		Shards:      al.SeedTableShards(),
		Fingerprint: fp,
	})
	if err != nil {
		return nil, err
	}
	defer dc.Close()
	warmCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	err = dc.Warm(warmCtx)
	cancel()
	if err != nil {
		return nil, err
	}

	cmp := &DHTNetComparison{Nodes: nodes}
	qopt := opt.QueryOptions
	qopt.CollectAlignments = true

	run := func(q core.QueryOptions) (DHTNetRun, *meraligner.Results, error) {
		start := time.Now()
		res, err := al.Align(context.Background(), reads, q)
		if err != nil {
			return DHTNetRun{}, nil, err
		}
		wall := time.Since(start).Seconds()
		return DHTNetRun{ReadsPerSec: float64(len(reads)) / wall, WallS: wall}, res, nil
	}

	var localRes, remoteRes *meraligner.Results
	if cmp.Local, localRes, err = run(qopt); err != nil {
		return nil, err
	}
	qr := qopt
	qr.SeedResolver = dc
	if cmp.Remote, remoteRes, err = run(qr); err != nil {
		return nil, err
	}
	cmp.Lookup = dc.Stats()

	var localSAM, remoteSAM bytes.Buffer
	if err := meraligner.WriteSAM(&localSAM, localRes, al.Targets(), reads); err != nil {
		return nil, err
	}
	if err := meraligner.WriteSAM(&remoteSAM, remoteRes, al.Targets(), reads); err != nil {
		return nil, err
	}
	cmp.Identical = bytes.Equal(localSAM.Bytes(), remoteSAM.Bytes())
	return cmp, nil
}
