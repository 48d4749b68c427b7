package experiments

import (
	"fmt"
	"time"

	"semblock/internal/datagen"
	"semblock/internal/obs"
	"semblock/internal/server"
	"semblock/internal/stream"
)

// LoadConfig parameterises one serving-layer load run (LoadBench): a
// synthetic Cora-like corpus is ingested into one server collection in
// fixed-size batches, with candidate drains interleaved, and the run
// reports ingest throughput and batch/drain latency quantiles. It is the
// measurement harness behind `semblock bench serve`.
type LoadConfig struct {
	// Records is the total number of records to ingest (default 100_000).
	Records int
	// Batch is the ingest mini-batch size (default 1024).
	Batch int
	// Shards is the collection's shards value (default 4), kept for
	// compatibility; it does not change the collection's layout.
	Shards int
	// Workers caps the signature worker pools (0 = runtime default).
	Workers int
	// DrainEvery drains candidates after every n-th batch (default 1;
	// < 0 disables draining until the final drain).
	DrainEvery int
	// Seed drives the synthetic corpus (default 1).
	Seed int64
	// Progress, when non-nil, receives a line of progress every ~10% of
	// the run.
	Progress func(string)
}

func (cfg *LoadConfig) defaults() {
	if cfg.Records <= 0 {
		cfg.Records = 100_000
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 1024
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if cfg.DrainEvery == 0 {
		cfg.DrainEvery = 1
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
}

// LoadResult is the outcome of one LoadBench run.
type LoadResult struct {
	Records int           // records ingested
	Pairs   int           // distinct candidate pairs emitted
	Drained int           // pairs delivered through drains
	Elapsed time.Duration // wall time of the ingest+drain loop (excludes datagen)

	RecordsPerSec float64

	// Per-ingest-batch latency quantiles.
	IngestP50, IngestP95, IngestP99 time.Duration
	// Per-drain latency quantiles (zero when draining is disabled).
	DrainP50, DrainP95, DrainP99 time.Duration
}

// String renders the result as the `semblock bench serve` report.
func (r *LoadResult) String() string {
	return fmt.Sprintf(
		"ingested %d records in %v (%.0f records/s), %d candidate pairs (%d drained)\n"+
			"ingest batch latency: p50 %v  p95 %v  p99 %v\n"+
			"drain latency:        p50 %v  p95 %v  p99 %v",
		r.Records, r.Elapsed.Round(time.Millisecond), r.RecordsPerSec, r.Pairs, r.Drained,
		r.IngestP50, r.IngestP95, r.IngestP99,
		r.DrainP50, r.DrainP95, r.DrainP99)
}

// LoadBench drives the serving-layer ingest hot path end to end — shared-log
// staging, table inserts, per-record canonical merge, candidate drains —
// against one in-process collection and measures it. The corpus is
// generated up front (generation time is excluded); the measured
// loop is exactly what the HTTP ingest/candidates endpoints execute minus
// the JSON transport.
func LoadBench(cfg LoadConfig) (*LoadResult, error) {
	cfg.defaults()

	gen := datagen.DefaultCoraConfig()
	gen.Records = cfg.Records
	gen.Seed = cfg.Seed
	d := datagen.Cora(gen)
	rows := make([]stream.Row, 0, d.Len())
	for _, r := range d.Records() {
		// Salt the blocking attributes with the ground-truth entity tag.
		// The generator draws titles and author names from fixed pools,
		// which is faithful at Cora's native ~2k scale but saturates at
		// millions of records: unrelated entities end up textually
		// near-identical (the same author string recurs hundreds of times),
		// buckets grow to O(n) members and the candidate-pair count
		// explodes quadratically. The salt keeps cross-entity textual
		// diversity growing with the corpus (as it does in real
		// bibliographic data) while an entity's duplicates still share
		// their salt grams, so within-cluster collisions — the load the
		// harness is meant to generate — are preserved.
		salt := fmt.Sprintf(" c%d", r.Entity)
		r.Attrs["title"] += salt
		r.Attrs["authors"] += salt
		rows = append(rows, stream.Row{Entity: r.Entity, Attrs: r.Attrs})
	}

	srv, err := server.New()
	if err != nil {
		return nil, err
	}
	// K=6 (vs the quality experiments' K=3) keeps the random-pair
	// collision probability low enough that the candidate set stays
	// near-linear in the corpus size — at million-record scale a K=3 band
	// collides a constant fraction of all record pairs and the pair ledger
	// grows quadratically, which measures the generator's tail, not the
	// serving layer.
	c, err := srv.Create(server.CollectionSpec{
		Name: "loadbench", Attrs: []string{"authors", "title"},
		Q: 3, K: 6, L: 12, Seed: 7,
		Shards: cfg.Shards, Workers: cfg.Workers,
		Semantic: &server.SemanticSpec{Domain: "cora", W: 3, Mode: "or"},
	})
	if err != nil {
		return nil, err
	}

	// Latencies are accumulated into the same fixed-bucket histograms the
	// serving layer exports on /metrics, so the harness's quantiles are the
	// estimate a PromQL histogram_quantile over the production series would
	// produce — O(1) memory regardless of batch count, at bucket resolution
	// instead of exact order statistics.
	res := &LoadResult{Records: len(rows)}
	batches := (len(rows) + cfg.Batch - 1) / cfg.Batch
	ingestHist := obs.NewHistogram()
	drainHist := obs.NewHistogram()
	progressStep := batches / 10

	start := time.Now()
	for b := 0; b*cfg.Batch < len(rows); b++ {
		lo := b * cfg.Batch
		hi := lo + cfg.Batch
		if hi > len(rows) {
			hi = len(rows)
		}
		t0 := time.Now()
		if _, err := c.Ingest(rows[lo:hi]); err != nil {
			return nil, err
		}
		ingestHist.Observe(time.Since(t0))
		if cfg.DrainEvery > 0 && (b+1)%cfg.DrainEvery == 0 {
			t0 = time.Now()
			res.Drained += len(c.Candidates())
			drainHist.Observe(time.Since(t0))
		}
		if cfg.Progress != nil && progressStep > 0 && (b+1)%progressStep == 0 {
			cfg.Progress(fmt.Sprintf("%d/%d records, %d pairs", hi, len(rows), c.PairCount()))
		}
	}
	res.Drained += len(c.Candidates())
	res.Elapsed = time.Since(start)
	res.Pairs = c.PairCount()
	if s := res.Elapsed.Seconds(); s > 0 {
		res.RecordsPerSec = float64(res.Records) / s
	}
	res.IngestP50, res.IngestP95, res.IngestP99 = quantiles(ingestHist)
	res.DrainP50, res.DrainP95, res.DrainP99 = quantiles(drainHist)
	return res, nil
}

// quantiles returns the histogram's p50/p95/p99 (zeros when empty).
func quantiles(h *obs.Histogram) (p50, p95, p99 time.Duration) {
	if h.Count() == 0 {
		return 0, 0, 0
	}
	return h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99)
}
