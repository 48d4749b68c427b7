// Command perfbench is semblock's end-to-end serving benchmark. It starts
// `semblock serve` as a separate process, drives one workload over HTTP
// from this single load-generator process (at most two connections),
// checks every output against in-process batch runs, and prints each metric
// of BENCHMARK.json by name and unit. The last line of standard output is
// the JSON result.
//
// Run it through perfbench/run.sh, which builds both binaries:
//
//	bash perfbench/run.sh --workload resolve-mixed --seed 3 --seconds 36 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 repeats the workload
// with client spans, reads /metrics and /debug/traces, replays the ingest
// layer by layer in process, and reports the per-layer metrics instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload name (see BENCHMARK.json)")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 30, "length of the open-loop workloads' load phase")
		traced   = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		bin      = flag.String("server", "", "semblock binary")
		work     = flag.String("work", ".bench_build", "directory for run data, logs and span files")
		manPath  = flag.String("manifest", "BENCHMARK.json", "benchmark manifest naming the metrics")
	)
	flag.Parse()
	if err := mainErr(*workload, *seed, *seconds, *traced == 1, *bin, *work, *manPath); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(workload string, seed int64, seconds int, traced bool, bin, work, manPath string) error {
	sp, err := loadSpec()
	if err != nil {
		return err
	}
	man, err := loadManifest(manPath)
	if err != nil {
		return err
	}
	w, err := sp.workload(workload)
	if err != nil {
		return err
	}
	if bin == "" || seconds < 1 {
		return fmt.Errorf("need -server and -seconds >= 1")
	}
	runtime.GOMAXPROCS(min(sp.GOMAXPROCS, runtime.NumCPU()))
	// The generator holds the corpus and every delivered pair; a lazier GC
	// keeps its collections from competing with the server for the cores.
	debug.SetGCPercent(200)
	dir, err := filepath.Abs(filepath.Join(work, "runs", fmt.Sprintf("%s-%d-%d", workload, seed, os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	r := &run{
		sp: sp, w: w, cfg: sp.Configs[w.Config], seed: seed, seconds: seconds,
		bin: bin, dir: dir, led: newLedger(),
		procs: map[*serverProc]bool{}, e2e: map[string]float64{}, layer: map[string]float64{},
	}
	if traced {
		r.tr = newTracer()
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		r.killAll()
		os.Exit(2)
	}()
	err = r.execute()
	r.killAll()
	if err != nil {
		return fmt.Errorf("%s seed %d: %w (run directory kept: %s)", workload, seed, err, dir)
	}
	if r.tr != nil {
		spans := filepath.Join(work, "traces", fmt.Sprintf("%s-seed%d.json", workload, seed))
		if err := os.MkdirAll(filepath.Dir(spans), 0o755); err != nil {
			return err
		}
		if err := r.tr.write(spans); err != nil {
			return err
		}
		r.note("spans written to %s", spans)
	}
	ok, err := r.report(man, os.Stdout)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("output checks failed (run directory kept: %s)", dir)
	}
	return os.RemoveAll(dir)
}

// execute runs the workload's phases in order and notes how long each took.
func (r *run) execute() error {
	var walls []string
	phase := func(name string, fn func() error) error {
		t0 := time.Now()
		err := fn()
		walls = append(walls, fmt.Sprintf("%s %.1fs", name, time.Since(t0).Seconds()))
		return err
	}
	defer func() { r.note("phase wall times: %s", strings.Join(walls, ", ")) }()
	_ = phase("corpus", func() error { r.buildCorpus(); return nil })
	var p *serverProc
	if err := phase("setup", func() (err error) { p, err = r.setup(); return err }); err != nil {
		return err
	}
	a := newConn(p.base, r.led, nil)
	m0, err := a.metrics("setup")
	a.close()
	if err != nil {
		return err
	}
	r.metrics0 = m0
	if err := p.collectGarbage(); err != nil {
		return err
	}
	loads := map[string]func(*serverProc) error{
		"ingest-paper":  r.loadIngestPaper,
		"resolve-mixed": r.loadResolveMixed,
		"stream-dense":  r.loadStreamDense,
	}
	load, ok := loads[r.w.Name]
	if !ok {
		return fmt.Errorf("no load generator for workload %q", r.w.Name)
	}
	if err := phase("load", func() error { return load(p) }); err != nil {
		return err
	}
	if err := phase("final", func() error { return r.final(p) }); err != nil {
		return err
	}
	r.requestStats()
	if err := phase("checks", r.check); err != nil {
		return err
	}
	if r.tr == nil {
		return nil
	}
	r.servedLayers()
	return phase("in-process layers", r.inProcess)
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// report prints the human-readable report and then the JSON result line.
// It returns whether every output check passed.
func (r *run) report(man *manifest, out *os.File) (bool, error) {
	defs, values := man.EndToEnd, r.e2e
	if r.tr != nil {
		defs, values = man.PerLayer, r.layer
	}
	res := result{Metrics: map[string]metricOut{}}
	res.Attempted, res.Failed = r.led.totals()
	fmt.Fprintf(out, "workload %s seed %d: %d seconds, GOMAXPROCS %d (server %d), nproc %d (load sized for %d)\n",
		r.w.Name, r.seed, r.seconds, runtime.GOMAXPROCS(0), r.sp.GOMAXPROCS, runtime.NumCPU(), r.sp.NProc)
	for _, ph := range r.led.order {
		pc := r.led.phases[ph]
		fmt.Fprintf(out, "  requests %-8s attempted %6d ok %6d failed %d\n", ph, pc.Attempted, pc.OK, pc.Failed)
	}
	frac := 0.0
	if res.Attempted > 0 {
		frac = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(out, "  fail_frac %.6f (%d of %d requests)\n", frac, res.Failed, res.Attempted)
	for _, n := range r.notes {
		fmt.Fprintf(out, "  %s\n", n)
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || (v == 0 && r.tr == nil) {
			// No end-to-end metric of a healthy run is 0.
			r.problem("metric %s was not measured", d.Name)
			continue
		}
		res.Metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
		fmt.Fprintf(out, "  %-26s %14.6g %s\n", d.Name, v, d.Unit)
	}
	for _, p := range r.problems {
		fmt.Fprintf(out, "  CHECK FAILED: %s\n", p)
	}
	res.Correct = len(r.problems) == 0 && res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Fprintln(out, string(line))
	return res.Correct, nil
}
