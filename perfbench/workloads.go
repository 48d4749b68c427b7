package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"semblock/internal/datagen"
	"semblock/internal/record"
	"semblock/internal/server"
)

// collName is the one collection every workload serves.
const collName = "bench"

// run is one benchmark invocation: one workload, one seed.
type run struct {
	sp      *benchSpec
	w       *workloadSpec
	cfg     server.CollectionSpec
	seed    int64
	seconds int
	bin     string
	dir     string // working directory of this run, removed when it passes
	led     *ledger
	tr      *tracer // nil in the untraced run

	// The corpus in send order: record i gets server ID i.
	sent   *record.Dataset
	bodies [][]byte // NDJSON ingest bodies in send order, preload first
	sizes  []int    // records per body
	nPre   int      // bodies sent during set-up

	mu    sync.Mutex
	procs map[*serverProc]bool // live server processes

	// Measurements.
	e2e       map[string]float64
	layer     map[string]float64
	ingestLat samples // POST acknowledgement latency (from due time in open loop)
	lateMS    samples // how late the generator sent each request
	// ingestWall runs from the first ingest send (or due time) of the
	// load to the last acknowledgement.
	ingestWall time.Duration
	resolves   []resolveSample
	cons       *consumer          // the group deliver_* is measured on
	groups     []*consumer        // every consumer group, cons first
	metrics0   map[string]float64 // /metrics before the load
	metrics1   map[string]float64 // /metrics after the final phase
	heapPeak   float64
	lastHeap   time.Time
	finalResp  *resolveResp // the final exhaustive resolve
	problems   []string
	notes      []string
}

type resolveSample struct {
	ms   float64
	resp resolveResp
	sid  int
}

func (r *run) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// buildCorpus generates the workload's records from the seed and encodes
// the ingest bodies. The server receives only these bytes.
func (r *run) buildCorpus() {
	w := r.w
	var sizes []int
	split := func(total, batch int) {
		for total > 0 {
			n := min(batch, total)
			sizes = append(sizes, n)
			total -= n
		}
	}
	switch w.Loop {
	case "closed":
		split(w.Records, w.Batch)
	default:
		if w.Preload > 0 {
			split(w.Preload, w.PreloadBatch)
			r.nPre = len(sizes)
		}
		sends := r.seconds * 1000 / w.IntervalMS
		for i := 0; i < sends; i++ {
			sizes = append(sizes, w.Batch)
		}
	}
	total := 0
	for _, n := range sizes {
		total += n
	}
	gen := datagen.DefaultCoraConfig()
	gen.Records = total
	gen.Seed = r.seed
	d := datagen.Cora(gen)
	// The generator emits an entity's duplicates back to back; a stream
	// sees them spread out.
	order := rand.New(rand.NewSource(r.seed)).Perm(d.Len())
	r.sent = record.NewDataset("sent")
	for _, i := range order {
		rec := d.Record(record.ID(i))
		r.sent.Append(rec.Entity, rec.Attrs)
	}
	recs := r.sent.Records()
	lo := 0
	for _, n := range sizes {
		var buf bytes.Buffer
		if err := record.WriteJSONLRecords(&buf, recs[lo:lo+n]); err != nil {
			panic(err) // writing to a bytes.Buffer cannot fail
		}
		r.bodies = append(r.bodies, buf.Bytes())
		lo += n
	}
	r.sizes = sizes
}

func (r *run) track(p *serverProc) {
	r.mu.Lock()
	r.procs[p] = true
	r.mu.Unlock()
}

func (r *run) stopProc(p *serverProc, graceful bool) error {
	var err error
	if graceful {
		err = p.stop(60 * time.Second)
	} else {
		p.kill()
	}
	r.mu.Lock()
	delete(r.procs, p)
	r.mu.Unlock()
	return err
}

// killAll ends every server still running (error exits, signals).
func (r *run) killAll() {
	r.mu.Lock()
	procs := make([]*serverProc, 0, len(r.procs))
	for p := range r.procs {
		procs = append(procs, p)
	}
	r.procs = map[*serverProc]bool{}
	r.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
}

func (r *run) start(dataDir string) (*serverProc, error) {
	p, err := startServer(r.bin, dataDir, filepath.Join(r.dir, "server.log"), r.sp.GOMAXPROCS)
	if err != nil {
		return nil, err
	}
	r.track(p)
	return p, nil
}

// setup starts the server, creates the collection and its consumer groups
// and preloads records, SetupRepeats times; setup_s is the median. Only
// the last server is kept.
func (r *run) setup() (*serverProc, error) {
	var times samples
	var kept *serverProc
	for i := 0; i < r.sp.SetupRepeats; i++ {
		dataDir := filepath.Join(r.dir, fmt.Sprintf("data-%d", i))
		last := i == r.sp.SetupRepeats-1
		t0 := time.Now()
		p, err := r.start(dataDir)
		if err != nil {
			return nil, err
		}
		if err := p.waitReady(120 * time.Second); err != nil {
			return nil, err
		}
		c := newConn(p.base, r.led, nil)
		spec := r.cfg
		spec.Name = collName
		if _, err := c.do("setup", "create", "POST", "/v1/collections", "application/json", jsonBody(spec), nil); err != nil {
			return nil, err
		}
		for _, cs := range r.w.Consumers {
			if cs.Group == server.DefaultConsumer {
				continue // always there
			}
			req := map[string]string{"group": cs.Group, "from": "start"}
			if _, err := c.do("setup", "consumer", "POST", "/v1/collections/"+collName+"/consumers", "application/json", jsonBody(req), nil); err != nil {
				return nil, err
			}
		}
		var preDrained []received
		for b := 0; b < r.nPre; b++ {
			if err := r.checkIngest(c, "setup", b); err != nil {
				return nil, err
			}
		}
		if r.nPre > 0 {
			// Preloaded pairs are delivered during set-up, so the measured
			// deliveries are only those of the records sent under load.
			got, err := c.drain("setup", collName, r.w.Consumers[0].Group, 0)
			if err != nil {
				return nil, err
			}
			preDrained = append(preDrained, received{at: time.Now(), pairs: got.recordPairs()})
		}
		times = append(times, time.Since(t0).Seconds())
		c.close()
		if last {
			kept = p
			for _, cs := range r.w.Consumers {
				r.groups = append(r.groups, &consumer{group: cs.Group, mode: cs.Mode})
			}
			r.cons = r.groups[0]
			if r.nPre > 0 {
				r.cons.got = preDrained
				r.cons.n = len(preDrained[0].pairs)
			}
			break
		}
		if err := r.stopProc(p, false); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, err
		}
	}
	r.e2e["setup_s"] = times.sorted().at(500)
	r.note("setup_s samples: %v", fmtSamples(times))
	return kept, nil
}

// checkIngest sends body b and checks the server assigned the expected
// dense IDs.
func (r *run) checkIngest(c *conn, phase string, b int) error {
	resp, _, err := c.ingest(phase, collName, r.bodies[b])
	if err != nil {
		return err
	}
	r.checkIDs(b, resp)
	return nil
}

func (r *run) firstID(b int) record.ID {
	id := 0
	for _, n := range r.sizes[:b] {
		id += n
	}
	return record.ID(id)
}

func (r *run) checkIDs(b int, resp ingestResp) {
	first := r.firstID(b)
	if resp.Count != r.sizes[b] || len(resp.IDs) != r.sizes[b] {
		r.problem("batch %d: server acknowledged %d records, sent %d", b, resp.Count, r.sizes[b])
		return
	}
	for i, id := range resp.IDs {
		if id != first+record.ID(i) {
			r.problem("batch %d: record %d got ID %d, want %d", b, i, id, first+record.ID(i))
			return
		}
	}
}

// consumer is the benchmark's view of one consumer group: every pair it
// held, in order, and when.
type consumer struct {
	group string
	mode  string // see consumerSpec

	mu      sync.Mutex
	got     []received
	n       int // pairs held
	batches int // non-empty deliveries
	retMax  int // most emitted-but-unacknowledged pairs seen at a delivery
	err     error
}

// add records one delivery starting at cursor. A gap or overlap with what
// the group already holds breaks exactly-once delivery.
func (c *consumer) add(at time.Time, b batchResp) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(b.Pairs) == 0 {
		return
	}
	if b.Cursor != c.n && c.err == nil {
		c.err = fmt.Errorf("group %s: delivery starts at cursor %d, held %d pairs", c.group, b.Cursor, c.n)
	}
	c.got = append(c.got, received{at: at, pairs: b.recordPairs()})
	c.n += len(b.Pairs)
	c.batches++
	c.retMax = max(c.retMax, b.Total-b.Cursor)
}

func (c *consumer) held() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// waitHeld waits until the group holds n pairs.
func (c *consumer) waitHeld(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if c.held() >= n {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("group %s holds %d of %d pairs after %v", c.group, c.held(), n, timeout)
}

func (c *consumer) seq() []record.Pair {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]record.Pair, 0, c.n)
	for _, g := range c.got {
		out = append(out, g.pairs...)
	}
	return out
}

// sampleHeap scrapes the server heap at most once a second, in the traced
// run only, between the load's own requests.
func (r *run) sampleHeap(c *conn) {
	if r.tr == nil || time.Since(r.lastHeap) < time.Second {
		return
	}
	r.lastHeap = time.Now()
	m, err := c.metrics("trace")
	if err == nil {
		r.heapPeak = max(r.heapPeak, m["semblock_heap_bytes"]/1e6)
	}
}

// loadIngestPaper: one closed-loop client POSTs the corpus while an SSE
// stream on the default group takes every pair.
func (r *run) loadIngestPaper(p *serverProc) error {
	a := newConn(p.base, r.led, r.tr)
	b := newConn(p.base, r.led, r.tr)
	defer a.close()
	defer b.close()
	bc := newBatchClock(r.sizes, 0)
	cons := r.cons

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan struct{})
	var once sync.Once
	sseDone := make(chan error, 1)
	go func() {
		sseDone <- b.sse(ctx, "load", collName, server.DefaultConsumer, func(ev string, data []byte, at time.Time) error {
			switch ev {
			case "cursor":
				once.Do(func() { close(ready) })
			case "pairs":
				var br batchResp
				if err := json.Unmarshal(data, &br); err != nil {
					return fmt.Errorf("decode SSE batch: %w", err)
				}
				cons.add(at, br)
			}
			return nil
		})
	}()
	select {
	case <-ready:
	case err := <-sseDone:
		return err
	}
	err := r.closedLoop(a, bc, cons)
	cancel()
	if sseErr := <-sseDone; sseErr != nil {
		return sseErr
	}
	if err != nil {
		return err
	}
	r.deliverStats(bc)
	return nil
}

// closedLoop POSTs every body back to back over one connection, then waits
// until cons holds every emitted pair. Each request is due when the
// previous answer arrives (the first at once), so the lateness figure is
// the generator's own gap between answer and next send.
func (r *run) closedLoop(a *conn, bc *batchClock, cons *consumer) error {
	start := time.Now()
	prevDone := start
	for i := range r.bodies {
		sent := time.Now()
		r.lateMS = append(r.lateMS, ms(sent.Sub(prevDone)))
		bc.stamp(i, sent)
		resp, _, err := a.ingest("load", collName, r.bodies[i])
		prevDone = time.Now()
		if err != nil {
			return err
		}
		r.checkIDs(i, resp)
		r.ingestLat = append(r.ingestLat, ms(prevDone.Sub(sent)))
		if i%10 == 9 {
			r.sampleHeap(a)
		}
	}
	r.ingestWall = prevDone.Sub(start)
	st, err := a.stats("load", collName)
	if err != nil {
		return err
	}
	return cons.waitHeld(st.Pairs, 30*time.Second)
}

// loadResolveMixed: one closed-loop client alternates exhaustive and
// budgeted CBS/WEP resolves while the second connection trickles ingest on
// an open-loop schedule and drains the default group after every
// acknowledgement, so every resolve sees new records.
func (r *run) loadResolveMixed(p *serverProc) error {
	a := newConn(p.base, r.led, r.tr)
	b := newConn(p.base, r.led, r.tr)
	defer a.close()
	defer b.close()
	trickle := r.sizes[r.nPre:]
	bc := newBatchClock(trickle, r.firstID(r.nPre))
	cons := r.cons

	sched := schedule{start: time.Now().Add(20 * time.Millisecond), every: time.Duration(r.w.IntervalMS) * time.Millisecond}
	for i := range trickle {
		bc.stamp(i, sched.due(i))
	}
	end := sched.due(len(trickle))
	var timings []sendTiming
	var trickleErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		timings = runOpenLoop(wallClock{}, sched, len(trickle), func(i int) error {
			resp, _, err := b.ingest("load", collName, r.bodies[r.nPre+i])
			if err == nil {
				r.checkIDs(r.nPre+i, resp)
			}
			return err
		}, func(int) error {
			got, err := b.drain("load", collName, cons.group, 0)
			if err == nil {
				cons.add(time.Now(), got)
			}
			return err
		})
		for _, t := range timings {
			trickleErr = errors.Join(trickleErr, t.err)
		}
	}()
	var resolveErr error
	for i := 0; time.Now().Before(end); i++ {
		if err := r.resolveOnce(a, "load", i%r.w.ExhaustiveEvery != 0); err != nil {
			resolveErr = err
			break
		}
		r.sampleHeap(a)
	}
	wg.Wait()
	if resolveErr != nil {
		return resolveErr
	}
	if trickleErr != nil {
		return trickleErr
	}
	r.openLoopStats(timings)
	if n := len(timings); n > 0 {
		r.ingestWall = timings[n-1].done.Sub(timings[0].due)
	}
	r.deliverStats(bc)
	return nil
}

// loadStreamDense: the first connection sends small batches on an
// open-loop schedule below capacity while the second long-polls the live
// group (the first consumer). Groups in "after" mode are drained only once
// the send phase is over, so they pin the emission log for the whole load.
func (r *run) loadStreamDense(p *serverProc) error {
	a := newConn(p.base, r.led, r.tr)
	b := newConn(p.base, r.led, r.tr)
	defer a.close()
	defer b.close()
	bc := newBatchClock(r.sizes, 0)
	sched := schedule{start: time.Now().Add(20 * time.Millisecond), every: time.Duration(r.w.IntervalMS) * time.Millisecond}
	for i := range r.sizes {
		bc.stamp(i, sched.due(i))
	}
	live := r.cons
	deadline := sched.due(len(r.sizes)).Add(time.Minute)
	var target atomic.Int64 // pairs the live group must hold; -1 while sending
	target.Store(-1)
	liveDone := make(chan error, 1)
	go func() {
		for {
			if t := target.Load(); t >= 0 && int64(live.held()) >= t {
				liveDone <- nil
				return
			}
			if time.Now().After(deadline) {
				liveDone <- fmt.Errorf("group %s holds %d pairs a minute after the last send", live.group, live.held())
				return
			}
			got, err := b.drain("load", collName, live.group, time.Second)
			if err != nil {
				liveDone <- err
				return
			}
			live.add(time.Now(), got)
			r.sampleHeap(b)
		}
	}()
	timings := runOpenLoop(wallClock{}, sched, len(r.sizes), func(i int) error {
		resp, _, err := a.ingest("load", collName, r.bodies[i])
		if err == nil {
			r.checkIDs(i, resp)
		}
		return err
	}, nil)
	st, err := a.stats("load", collName)
	for _, t := range timings {
		err = errors.Join(err, t.err)
	}
	if err != nil {
		target.Store(0)
		return errors.Join(err, <-liveDone)
	}
	target.Store(int64(st.Pairs))
	if err := <-liveDone; err != nil {
		return err
	}
	r.openLoopStats(timings)
	r.ingestWall = timings[len(timings)-1].done.Sub(timings[0].due)
	r.deliverStats(bc)
	for _, g := range r.groups {
		for g.mode == "after" && g.held() < st.Pairs {
			got, err := a.drain("load", collName, g.group, 0)
			if err != nil {
				return err
			}
			if len(got.Pairs) == 0 {
				return fmt.Errorf("group %s: nothing pending at %d of %d pairs", g.group, g.held(), st.Pairs)
			}
			g.add(time.Now(), got)
		}
	}
	return nil
}

// resolveOnce runs one CBS/WEP resolve, budgeted or exhaustive.
func (r *run) resolveOnce(c *conn, phase string, budgeted bool) error {
	req := r.sp.Resolve
	if !budgeted {
		req.Budget = 0
	}
	t0 := time.Now()
	resp, sid, err := c.resolve(phase, collName, req)
	if err != nil {
		return err
	}
	r.resolves = append(r.resolves, resolveSample{ms: ms(time.Since(t0)), resp: resp, sid: sid})
	if !budgeted {
		r.finalResp = &resp
	}
	return nil
}

// openLoopStats turns open-loop timings into latency-from-due and
// lateness samples.
func (r *run) openLoopStats(ts []sendTiming) {
	for _, t := range ts {
		r.ingestLat = append(r.ingestLat, ms(t.latency()))
		r.lateMS = append(r.lateMS, ms(t.late()))
	}
}

// deliverStats computes deliver_* from the pairs the consumer held during
// the load.
func (r *run) deliverStats(bc *batchClock) {
	r.cons.mu.Lock()
	all := append([]received(nil), r.cons.got...)
	r.cons.mu.Unlock()
	lat, _ := deliverLatencies(bc, all)
	if len(lat) == 0 {
		r.problem("no pair was delivered during the load")
		return
	}
	sorted := lat.sorted()
	r.e2e["deliver_p50_ms"] = sorted.at(500)
	r.setTail("deliver_tail_ms", lat, r.w.TailWindows)
	r.note("deliver_tail_ms: %d deliveries hold a pair beyond it", deliveriesBeyond(bc, all, r.e2e["deliver_tail_ms"]))
}

// setTail stores a tail metric at the workload's fixed percentile, as the
// median over windows consecutive parts of the samples, and notes whether
// this run had enough samples for it.
func (r *run) setTail(name string, s samples, windows int) {
	t := s.windowedTail(mustPercentile(r.w.Tails[name]), windows)
	r.e2e[name] = t.value
	r.note("%s %s", name, t)
}

// final is the phase every workload ends with: final resolves, explicit
// acks, a metrics scrape, checkpoint and compaction, SIGTERM, restart and
// the restart checks.
func (r *run) final(p *serverProc) error {
	a := newConn(p.base, r.led, r.tr)
	defer a.close()
	// Every exhaustive_every-th final resolve is exhaustive, the first
	// always: resolve_f1 and the batch comparison come from the last
	// exhaustive one.
	for i := 0; i < r.w.FinalResolves; i++ {
		if err := p.collectGarbage(); err != nil {
			return err
		}
		if err := r.resolveOnce(a, "final", i%r.w.ExhaustiveEvery != 0); err != nil {
			return err
		}
	}
	if r.finalResp == nil {
		return fmt.Errorf("no exhaustive resolve ran")
	}
	// Each group is acknowledged at the position it holds (idempotent).
	for _, g := range r.groups {
		if err := a.ack("final", collName, g.group, g.held()); err != nil {
			return err
		}
	}
	st, err := a.stats("final", collName)
	if err != nil {
		return err
	}
	if st.Records != r.sent.Len() {
		r.problem("server holds %d records, sent %d", st.Records, r.sent.Len())
	}
	for _, g := range r.groups {
		if held := g.held(); held != st.Pairs {
			r.problem("group %s held %d pairs, server emitted %d", g.group, held, st.Pairs)
		}
	}
	if r.metrics1, err = a.metrics("final"); err != nil {
		return err
	}
	r.heapPeak = max(r.heapPeak, r.metrics1["semblock_heap_bytes"]/1e6)
	if r.tr != nil {
		if err := r.attachServerTraces(a); err != nil {
			return err
		}
	}
	rss, err := p.vmHWM()
	if err != nil {
		return err
	}
	r.e2e["rss_peak_mb"] = rss * 1.048576 // MiB → MB
	for _, op := range []string{"checkpoint", "compact"} {
		if _, err := a.do("final", op, "POST", "/v1/collections/"+collName+"/"+op, "", nil, nil); err != nil {
			return err
		}
	}
	a.close()
	if err := r.stopProc(p, true); err != nil {
		return err
	}
	var restores samples
	for i := 0; i < max(r.w.Restarts, 1); i++ {
		d, err := r.restart(st)
		if err != nil {
			return err
		}
		restores = append(restores, d.Seconds())
	}
	r.e2e["restore_s"] = restores.sorted().at(500)
	r.note("restore_s samples: %v", fmtSamples(restores))
	return nil
}

// restart boots a server on the same data dir and times it until /healthz
// answers and the stats show every record; then no acknowledged group may
// get a pair again.
func (r *run) restart(before statsResp) (time.Duration, error) {
	dataDir := filepath.Join(r.dir, fmt.Sprintf("data-%d", r.sp.SetupRepeats-1))
	t0 := time.Now()
	p, err := r.start(dataDir)
	if err != nil {
		return 0, err
	}
	defer r.stopProc(p, false)
	if err := p.waitReady(150 * time.Second); err != nil {
		return 0, err
	}
	c := newConn(p.base, r.led, nil)
	defer c.close()
	var st statsResp
	for {
		if st, err = c.stats("restart", collName); err != nil {
			return 0, err
		}
		if st.Records >= before.Records || time.Since(t0) > 150*time.Second {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	took := time.Since(t0)
	if st.Records != before.Records || st.Pairs != before.Pairs {
		r.problem("restart: %d records / %d pairs, before %d / %d", st.Records, st.Pairs, before.Records, before.Pairs)
	}
	for _, g := range r.groups {
		got, err := c.peek("restart", collName, g.group)
		if err != nil {
			return 0, err
		}
		if len(got.Pairs) != 0 {
			r.problem("restart: group %s would be redelivered %d pairs", g.group, len(got.Pairs))
		}
	}
	return took, r.stopProc(p, true)
}

// attachServerTraces copies the server's /resolve spans under the client
// spans that carried the same trace ID.
func (r *run) attachServerTraces(c *conn) error {
	trs, err := c.traces("final")
	if err != nil {
		return err
	}
	byTrace := make(map[string]resolveSample)
	for _, s := range r.resolves {
		if s.resp.TraceID != "" {
			byTrace[s.resp.TraceID] = s
		}
	}
	found := 0
	for _, t := range trs {
		s, ok := byTrace[t.TraceID]
		if !ok || !strings.HasSuffix(t.Name, "/resolve") {
			continue
		}
		found++
		r.tr.mu.Lock()
		parent := r.tr.spans[s.sid]
		r.tr.mu.Unlock()
		// The server's trace clock is its own; anchor the handler span at
		// the client span's start, which it cannot precede.
		base := r.tr.t0.Add(time.Duration(parent.Start))
		h := r.tr.add("server.resolve", t.TraceID, s.sid, base, base.Add(time.Duration(t.DurationNS)))
		for _, sp := range t.Spans {
			st := base.Add(time.Duration(sp.StartNS))
			r.tr.add("pipeline."+sp.Name, t.TraceID, h, st, st.Add(time.Duration(sp.DurNS)))
		}
	}
	if found != len(byTrace) {
		r.problem("found %d of %d /resolve traces in /debug/traces", found, len(byTrace))
	}
	return nil
}

// requestStats derives the ingest, resolve and lateness metrics from the
// raw samples.
func (r *run) requestStats() {
	if len(r.ingestLat) == 0 {
		r.problem("no ingest request was measured")
		return
	}
	records := 0
	for _, n := range r.sizes[r.nPre:] {
		records += n
	}
	r.e2e["ingest_rps"] = float64(records) / r.ingestWall.Seconds()
	r.e2e["ingest_p50_ms"] = r.ingestLat.sorted().at(500)
	r.setTail("ingest_tail_ms", r.ingestLat, r.w.TailWindows)
	var res samples
	for _, s := range r.resolves {
		res = append(res, s.ms)
	}
	r.e2e["resolve_p50_ms"] = res.sorted().at(500)
	r.setTail("resolve_tail_ms", res, 1)
	late := r.lateMS.tail(mustPercentile(r.w.Tails["loadgen.late_tail_ms"]))
	r.layer["loadgen.late_tail_ms"] = late.value
	r.note("loadgen.late_tail_ms %s", late)
}

func fmtSamples(s samples) string {
	parts := make([]string, len(s))
	for i, v := range s {
		parts[i] = fmt.Sprintf("%.4g", v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
