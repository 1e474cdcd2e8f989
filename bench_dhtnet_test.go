package meraligner_test

// Benchmark and recorded baseline of the network seed DHT: the same engine
// aligning the same reads with seed lookups against the local table versus
// a 3-node seed-shard fleet over loopback HTTP. Everything shares one host,
// so the dht row measures lookup RPC overhead (framing, HTTP, coalescing),
// not scale-out — the recorded contract is SAM byte-identity plus bounded
// overhead, with the coalescer's seeds-per-frame factor as the aggregation
// signal (the paper's aggregated remote stores, as a serving tier).

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"github.com/lbl-repro/meraligner/internal/core"
	"github.com/lbl-repro/meraligner/internal/expt"
)

func dhtNetComparison(tb testing.TB, reads int) *expt.DHTNetComparison {
	tb.Helper()
	ds := clusterWorkload(tb)
	rs := ds.Reads
	if len(rs) > reads {
		rs = rs[:reads]
	}
	opt := core.DefaultOptions(19)
	opt.MaxSeedHits = 200
	cmp, err := expt.RunDHTNetComparison(2, opt, ds.Contigs, rs, 3)
	if err != nil {
		tb.Fatal(err)
	}
	if !cmp.Identical {
		tb.Fatal("DHT-resolved SAM differs from local SAM")
	}
	return cmp
}

// BenchmarkDHTNetTier runs the two seed stores side by side on one workload.
func BenchmarkDHTNetTier(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cmp := dhtNetComparison(b, 1000)
		b.ReportMetric(cmp.Local.ReadsPerSec, "local-reads/s")
		b.ReportMetric(cmp.Remote.ReadsPerSec, "dht-reads/s")
	}
}

// TestRecordDHTNetBaseline writes BENCH_dhtnet.json — the committed network
// seed DHT baseline — when MERALIGNER_RECORD_BASELINE=1:
//
//	MERALIGNER_RECORD_BASELINE=1 go test -run TestRecordDHTNetBaseline .
func TestRecordDHTNetBaseline(t *testing.T) {
	if os.Getenv("MERALIGNER_RECORD_BASELINE") == "" {
		t.Skip("set MERALIGNER_RECORD_BASELINE=1 to (re)record BENCH_dhtnet.json")
	}
	var best *expt.DHTNetComparison
	for i := 0; i < 3; i++ {
		cmp := dhtNetComparison(t, 2000)
		if best == nil || cmp.Remote.WallS < best.Remote.WallS {
			best = cmp
		}
	}

	perFrame := 0.0
	if best.Lookup.Batches > 0 {
		perFrame = float64(best.Lookup.BatchedSeeds) / float64(best.Lookup.Batches)
	}
	baseline := struct {
		Workload      string  `json:"workload"`
		Nodes         int     `json:"seed_shard_nodes"`
		K             int     `json:"k"`
		HostCPUs      int     `json:"host_cpus"`
		GoOS          string  `json:"goos"`
		GoArch        string  `json:"goarch"`
		Identical     bool    `json:"sam_byte_identical"`
		LocalRPS      float64 `json:"local_reads_per_s"`
		DHTRPS        float64 `json:"dht_reads_per_s"`
		Lookups       int64   `json:"seed_lookups"`
		Frames        int64   `json:"lookup_frames"`
		SeedsPerFrame float64 `json:"seeds_per_frame"`
		Direct        int64   `json:"direct_calls"`
		Retries       int64   `json:"retries"`
		DHTOverhead   float64 `json:"dht_overhead_x"`
		Description   string  `json:"description"`
	}{
		Workload: "ecoli-like 300kb, depth 2, 100bp reads, k=19",
		Nodes:    best.Nodes, K: 19,
		HostCPUs: runtime.NumCPU(), GoOS: runtime.GOOS, GoArch: runtime.GOARCH,
		Identical:     best.Identical,
		LocalRPS:      best.Local.ReadsPerSec,
		DHTRPS:        best.Remote.ReadsPerSec,
		Lookups:       best.Lookup.Seeds,
		Frames:        best.Lookup.Batches,
		SeedsPerFrame: perFrame,
		Direct:        best.Lookup.Direct,
		Retries:       best.Lookup.Retries,
		DHTOverhead: func() float64 {
			if best.Remote.ReadsPerSec == 0 {
				return 0
			}
			return best.Local.ReadsPerSec / best.Remote.ReadsPerSec
		}(),
		Description: "network seed DHT baseline: the seed table hash-partitioned into 3 seed-shard " +
			"snapshots (real -dht-save artifacts reopened from disk) served by merserved -seed-shard " +
			"over loopback HTTP, vs the same engine probing its local table; best of 3. SAM " +
			"byte-identity between the runs is asserted before timing. dht_overhead_x is local/dht " +
			"throughput — each work chunk's seed lookups become at most two coalesced RPCs (first " +
			"seeds for the exact-match path, then the rest for the reads it leaves), so > 1 is expected; the " +
			"contract is identity plus bounded overhead, and real deployments spread seed shards " +
			"across hosts for seed tables no single node can hold (the paper's §IV motivation). " +
			"seeds_per_frame is the client coalescer's aggregation factor across concurrent workers",
	}
	out, err := json.MarshalIndent(baseline, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_dhtnet.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("recorded BENCH_dhtnet.json:\n%s", out)
	if !best.Identical {
		t.Error("DHT-resolved SAM not byte-identical to local")
	}
}
