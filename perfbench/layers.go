package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"semblock/internal/lsh"
	"semblock/internal/record"
	"semblock/internal/server"
	"semblock/internal/stream"
)

// decodeRows decodes one ingest body with the server's JSONL codec.
func decodeRows(body []byte) ([]stream.Row, error) {
	d, err := record.ReadJSONL(bytes.NewReader(body), collName)
	if err != nil {
		return nil, err
	}
	rows := make([]stream.Row, 0, d.Len())
	for _, rec := range d.Records() {
		rows = append(rows, stream.Row{Entity: rec.Entity, Attrs: rec.Attrs})
	}
	return rows, nil
}

// inProcess is the traced run's in-process breakdown of ingest and
// persistence; see replayIngest and persistLayers.
func (r *run) inProcess() error {
	coll, err := r.replayIngest()
	if err != nil {
		return err
	}
	runtime.GC()
	return r.persistLayers(coll)
}

// replayIngest replays the run's ingest bodies in this process twice,
// batch by batch and in alternating order so both passes see the same heap
// and the same machine: once through a server.Collection untimed inside
// (the reference wall time; its default consumer group is then drained,
// timed as server.drain, which yields the reference pair sequence), once
// layer by layer through
// the public functions Collection.Ingest is made of, with a span around
// each call:
//
//	ingest.batch
//	├─ record.decode   record.ReadJSONL
//	├─ lsh.stage       stream.SharedLog.Append (q-grams, base hashes, semhash)
//	├─ stream.insert   stream.Indexer.InsertStaged
//	│  └─ lsh.sign     lsh.Signer.SignStagedInto over the same stages, timed
//	│                  in a separate pass and charged to the insert it is part of
//	└─ server.merge    dedup against the ledger + sort per record + append
//
// The breakdown must emit the same pair sequence as the Collection, so it
// cannot drift from Collection.Ingest unnoticed.
func (r *run) replayIngest() (*server.Collection, error) {
	spec := r.cfg
	spec.Name = collName
	srv, err := server.New()
	if err != nil {
		return nil, err
	}
	coll, err := srv.Create(spec)
	if err != nil {
		return nil, err
	}
	cfg, err := lshConfig(r.cfg)
	if err != nil {
		return nil, err
	}
	workers := runtime.NumCPU()
	log, err := stream.NewSharedLog(collName, cfg, workers)
	if err != nil {
		return nil, err
	}
	tables := make([]int, cfg.L)
	for i := range tables {
		tables[i] = i
	}
	ix, err := stream.NewIndexer(cfg, stream.WithTables(tables...), stream.WithWorkers(workers), stream.WithSharedLog(log))
	if err != nil {
		return nil, err
	}
	signer, err := lsh.NewSigner(cfg)
	if err != nil {
		return nil, err
	}
	var seen record.StripedPairSet
	var got []record.Pair
	var drained [][]record.Pair // the Collection's sequence, drain by drain
	var raw, shingles int64
	var untraced, traced time.Duration

	plain := func(b int, body []byte) error {
		t0 := time.Now()
		rows, err := decodeRows(body)
		if err != nil {
			return err
		}
		if _, err := coll.Ingest(rows); err != nil {
			return err
		}
		untraced += time.Since(t0)
		// The drain is timed apart from the reference ingest; it also
		// keeps the emission log trimmed, as the served consumer does.
		sp := r.tr.open("server.drain", fmt.Sprintf("inproc-drain-%d", b), -1)
		_, err = coll.DrainConsumer(server.DefaultConsumer, func(cb server.ConsumerBatch) error {
			drained = append(drained, cb.Pairs) // popped windows stay valid
			return nil
		})
		r.tr.close(sp)
		return err
	}
	layered := func(b int, body []byte) error {
		trace := fmt.Sprintf("inproc-%d", b)
		root := r.tr.open("ingest.batch", trace, -1)
		t0 := time.Now()
		sp := r.tr.open("record.decode", trace, root)
		rows, err := decodeRows(body)
		r.tr.close(sp)
		if err != nil {
			return err
		}
		sp = r.tr.open("lsh.stage", trace, root)
		batch := log.Append(rows)
		r.tr.close(sp)
		insStart := time.Now()
		ins := r.tr.open("stream.insert", trace, root)
		groups := ix.InsertStaged(batch)
		r.tr.close(ins)
		sp = r.tr.open("server.merge", trace, root)
		got = mergeGroups(&seen, groups, len(batch.IDs), workers, got)
		r.tr.close(sp)
		r.tr.close(root)
		traced += time.Since(t0)

		recs := log.Records()[batch.IDs[0] : int(batch.IDs[len(batch.IDs)-1])+1]
		signDur, n := timeSign(signer, recs, workers)
		shingles += n
		r.tr.add("lsh.sign", trace, ins, insStart, insStart.Add(signDur))
		raw += int64(len(groups.Pairs()))
		return nil
	}
	runtime.GC()
	for b, body := range r.bodies {
		var first, second error
		if b%2 == 0 {
			first, second = plain(b, body), layered(b, body)
		} else {
			first, second = layered(b, body), plain(b, body)
		}
		if err := errors.Join(first, second); err != nil {
			return nil, err
		}
	}
	var want []record.Pair
	for _, ps := range drained {
		want = append(want, ps...)
	}
	if digest(got) != digest(want) || len(got) != len(want) {
		r.problem("in-process breakdown emitted %d pairs (digest %s), Collection.Ingest %d (digest %s)",
			len(got), digest(got), len(want), digest(want))
	}
	self := r.tr.selfTimes()
	for _, name := range []string{"record.decode", "lsh.stage", "lsh.sign", "stream.insert", "server.merge", "server.drain"} {
		r.layer[name+"_s"] = self[name]
	}
	accounted := self["record.decode"] + self["lsh.stage"] + self["lsh.sign"] + self["stream.insert"] + self["server.merge"]
	r.layer["trace.overhead_frac"] = traced.Seconds()/untraced.Seconds() - 1
	r.layer["trace.coverage"] = accounted / untraced.Seconds()
	r.note("in-process ingest: untraced %.3fs, traced %.3fs, layer self times %.3fs (off by %+.1f%% of untraced, tracing overhead %+.1f%%)",
		untraced.Seconds(), traced.Seconds(), accounted, 100*(accounted/untraced.Seconds()-1), 100*r.layer["trace.overhead_frac"])
	r.layer["lsh.hash_ops"] = float64(shingles) * float64(cfg.K*cfg.L)
	r.layer["stream.collisions"] = float64(raw)
	r.layer["server.fresh_ratio"] = float64(len(got)) / float64(raw)
	r.layer["engine.max_bucket"] = float64(ix.Snapshot().MaxBlockSize())
	return coll, nil
}

// mergeGroups is the collection's canonical merge, parallel over records
// as Collection.Ingest runs it: each record's fresh pairs (not seen
// before), sorted, then appended in record order.
func mergeGroups(seen *record.StripedPairSet, groups stream.PairGroups, n, workers int, out []record.Pair) []record.Pair {
	fresh := make([][]record.Pair, n)
	parallelChunks(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			var g []record.Pair
			for _, p := range groups.Group(i) {
				if seen.AddPair(p) {
					g = append(g, p)
				}
			}
			record.SortPairs(g)
			fresh[i] = g
		}
	})
	for _, g := range fresh {
		out = append(out, g...)
	}
	return out
}

// parallelChunks runs fn over up to workers contiguous chunks of [0,n) and
// waits for them.
func parallelChunks(n, workers int, fn func(lo, hi int)) {
	if workers < 1 {
		workers = 1
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, min(lo+chunk, n))
	}
	wg.Wait()
}

// timeSign signs the records from fresh stages with the given parallelism
// and returns the time spent in SignStagedInto alone, plus the number of
// shingle hashes signed.
func timeSign(signer *lsh.Signer, recs []*record.Record, workers int) (time.Duration, int64) {
	stages := make([]lsh.Stage, len(recs))
	var arena []uint64
	var shingles int64
	var buf []uint64
	for i, rec := range recs {
		stages[i], arena = signer.StageAppend(rec, arena)
		buf = signer.AppendKeyHashes(rec, buf[:0])
		shingles += int64(len(buf))
	}
	size := signer.Config().K * signer.Config().L
	sigs := make([]uint64, len(recs)*size)
	start := time.Now()
	parallelChunks(len(recs), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			signer.SignStagedInto(&stages[i], nil, sigs[i*size:(i+1)*size])
		}
	})
	return time.Since(start), shingles
}

// persistLayers times checkpoint, compaction and restore of the in-process
// collection, and the JSONL decode share of restore.
func (r *run) persistLayers(coll *server.Collection) error {
	dir := filepath.Join(r.dir, "inproc-data")
	timed := func(name string, fn func() error) (time.Duration, error) {
		sp := r.tr.open(name, "persist", -1)
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		r.tr.close(sp)
		return d, err
	}
	ck, err := timed("persist.checkpoint", func() error { return coll.Save(dir) })
	if err != nil {
		return err
	}
	cp, err := timed("persist.compact", func() error { _, err := coll.Compact(dir); return err })
	if err != nil {
		return err
	}
	var restored *server.Collection
	rs, err := timed("persist.restore", func() (err error) { restored, err = server.LoadCollection(dir); return err })
	if err != nil {
		return err
	}
	if restored.Len() != coll.Len() || restored.PairCount() != coll.PairCount() {
		r.problem("in-process restore: %d records / %d pairs, saved %d / %d",
			restored.Len(), restored.PairCount(), coll.Len(), coll.PairCount())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var bytesTotal int64
	var decode time.Duration
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), "segment-") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return err
		}
		bytesTotal += int64(len(data))
		t0 := time.Now()
		if _, err := record.ReadJSONL(bytes.NewReader(data), collName); err != nil {
			return err
		}
		decode += time.Since(t0)
	}
	r.layer["persist.checkpoint_s"] = ck.Seconds()
	r.layer["persist.compact_s"] = cp.Seconds()
	r.layer["persist.restore_s"] = rs.Seconds()
	r.layer["persist.restore_decode_s"] = decode.Seconds()
	r.layer["persist.segment_bytes"] = float64(bytesTotal)
	return nil
}

// servedLayers derives the per-layer figures that come from the served run:
// the client spans, the server's /metrics and its /resolve traces.
func (r *run) servedLayers() {
	dur := r.tr.durations()
	m0, m1 := r.metrics0, r.metrics1
	delta := func(key string) float64 { return m1[key] - m0[key] }
	r.layer["http.overhead_s"] = dur["http.ingest"] - delta("semblock_ingest_batch_duration_seconds_sum")
	r.note("served drains: %.0f, %.4fs", delta("semblock_drain_duration_seconds_count"), delta("semblock_drain_duration_seconds_sum"))
	r.layer["server.ack_s"] = routeSum(m1, "/ack") - routeSum(m0, "/ack")
	r.layer["server.deliver_batches"] = float64(r.cons.batches)
	r.layer["server.retained_max"] = float64(r.cons.retMax)
	for _, stage := range []string{"block", "sign", "graph", "rank", "match"} {
		r.layer["pipeline."+stage+"_s"] = dur["pipeline."+stage]
	}
	var scored, matched int64
	for _, s := range r.resolves {
		scored += s.resp.PairsScored
		matched += int64(s.resp.NumMatches)
	}
	r.layer["pipeline.pairs_scored"] = float64(scored)
	if scored > 0 {
		r.layer["pipeline.match_yield"] = float64(matched) / float64(scored)
	}
	r.layer["runtime.gc_cycles"] = m1["semblock_gc_cycles_total"]
	r.layer["runtime.heap_peak_mb"] = r.heapPeak
}

// routeSum adds up the request-duration sums of every route ending in
// suffix, all status codes.
func routeSum(m map[string]float64, suffix string) float64 {
	total := 0.0
	for k, v := range m {
		if strings.HasPrefix(k, "semblock_http_request_duration_seconds_sum{") &&
			strings.Contains(k, suffix+`"`) {
			total += v
		}
	}
	return total
}
