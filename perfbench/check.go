package main

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"semblock/internal/blocking"
	"semblock/internal/datagen"
	"semblock/internal/er"
	"semblock/internal/lsh"
	"semblock/internal/metablocking"
	"semblock/internal/pipeline"
	"semblock/internal/record"
	"semblock/internal/semantic"
	"semblock/internal/server"
	"semblock/internal/taxonomy"
)

// lshConfig builds the lsh.Config a collection spec describes, the way the
// server does for a built-in semantic domain: the semhash schema comes from
// the domain's deterministic reference dataset. If this drifts from the
// server, the batch comparison below fails, which is the point of it.
func lshConfig(spec server.CollectionSpec) (lsh.Config, error) {
	cfg := lsh.Config{Attrs: spec.Attrs, Q: spec.Q, K: spec.K, L: spec.L, Seed: spec.Seed, Workers: spec.Workers}
	if spec.Semantic == nil {
		return cfg, nil
	}
	var ref *record.Dataset
	var fn semantic.Function
	var err error
	switch spec.Semantic.Domain {
	case "cora":
		ref = datagen.Cora(datagen.DefaultCoraConfig())
		fn, err = semantic.NewCoraFunction(taxonomy.Bibliographic())
	case "voter":
		ref = datagen.Voter(datagen.DefaultVoterConfig())
		fn, err = semantic.NewVoterFunction(taxonomy.Voter())
	default:
		return cfg, fmt.Errorf("unknown semantic domain %q", spec.Semantic.Domain)
	}
	if err != nil {
		return cfg, err
	}
	schema, err := semantic.BuildSchema(fn, ref)
	if err != nil {
		return cfg, err
	}
	w := spec.Semantic.W
	if w <= 0 {
		w = (schema.Bits() + 1) / 2
	}
	mode := lsh.ModeOR
	if strings.EqualFold(spec.Semantic.Mode, "and") {
		mode = lsh.ModeAND
	}
	cfg.Semantic = &lsh.SemanticOption{Schema: schema, W: w, Mode: mode}
	return cfg, nil
}

// canonical orders a pair set the way the server emits it: by higher ID,
// then lower ID.
func canonical(ps record.PairSet) []record.Pair {
	seq := ps.Slice()
	sort.Slice(seq, func(i, j int) bool {
		if seq[i].Right() != seq[j].Right() {
			return seq[i].Right() < seq[j].Right()
		}
		return seq[i].Left() < seq[j].Left()
	})
	return seq
}

// digest is an FNV-64a hash of a pair sequence, order included.
func digest(seq []record.Pair) string {
	h := fnv.New64a()
	var b [8]byte
	for _, p := range seq {
		for i := 0; i < 8; i++ {
			b[i] = byte(uint64(p) >> (8 * i))
		}
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// fixedBlocker hands an already computed block collection to the pipeline,
// so the batch resolve reuses the batch Block result.
type fixedBlocker struct{ res *blocking.Result }

func (f fixedBlocker) Name() string                                    { return f.res.Technique }
func (f fixedBlocker) Block(*record.Dataset) (*blocking.Result, error) { return f.res, nil }

// check compares everything the server delivered with in-process batch
// runs over the same records: every consumer group's pair sequence against
// lsh.Blocker.Block, and the final exhaustive resolve against a
// batch pipeline run. It also computes PC, PQ and F1.
func (r *run) check() error {
	cfg, err := lshConfig(r.cfg)
	if err != nil {
		return err
	}
	blocker, err := lsh.New(cfg)
	if err != nil {
		return err
	}
	res, err := blocker.Block(r.sent)
	if err != nil {
		return fmt.Errorf("batch block: %w", err)
	}
	want := canonical(res.CandidatePairs())
	wantDigest := digest(want)
	for _, g := range r.groups {
		got := g.seq()
		if g.err != nil {
			r.problem("%v", g.err)
		}
		if d := digest(got); d != wantDigest || len(got) != len(want) {
			r.problem("group %s: %d pairs digest %s, batch Block has %d pairs digest %s", g.group, len(got), d, len(want), wantDigest)
		}
	}
	r.note("batch Block: %d pairs, digest %s", len(want), wantDigest)

	truth := record.NewPairSet(0)
	for _, p := range r.sent.TrueMatches() {
		truth.AddPair(p)
	}
	hits := 0
	for _, p := range want {
		if _, ok := truth[p]; ok {
			hits++
		}
	}
	r.e2e["pc"] = float64(hits) / float64(len(truth))
	r.e2e["pq"] = float64(hits) / float64(len(want))

	matcher, err := r.matcher()
	if err != nil {
		return err
	}
	scheme, algo, err := pruning(r.sp.Resolve.Pruning)
	if err != nil {
		return err
	}
	p, err := pipeline.New(fixedBlocker{res}, pipeline.WithMatcher(matcher), pipeline.WithPruning(scheme, algo))
	if err != nil {
		return err
	}
	batch, err := p.Run(r.sent)
	if err != nil {
		return fmt.Errorf("batch pipeline: %w", err)
	}
	served := make([]record.Pair, 0, len(r.finalResp.Matches))
	for _, m := range r.finalResp.Matches {
		served = append(served, record.MakePair(m.Left, m.Right))
	}
	record.SortPairs(served)
	local := make([]record.Pair, 0, len(batch.Matches))
	for _, m := range batch.Matches {
		local = append(local, m.Pair)
	}
	record.SortPairs(local)
	if digest(served) != digest(local) {
		r.problem("final resolve: %d matches, batch pipeline %d (sets differ)", len(served), len(local))
	}
	tp := 0
	for _, m := range local {
		if _, ok := truth[m]; ok {
			tp++
		}
	}
	if len(local) == 0 || tp == 0 {
		r.problem("final resolve found no true match")
		return nil
	}
	prec := float64(tp) / float64(len(local))
	rec := float64(tp) / float64(len(truth))
	r.e2e["resolve_f1"] = 2 * prec * rec / (prec + rec)
	return nil
}

// matcher builds the er.Matcher a /resolve request describes (an unset
// weight counts 1, as the server does).
func (r *run) matcher() (*er.Matcher, error) {
	weights := make([]er.AttrWeight, len(r.sp.Resolve.Match))
	for i, m := range r.sp.Resolve.Match {
		w := m.Weight
		if w == 0 {
			w = 1
		}
		weights[i] = er.AttrWeight{Attr: m.Attr, Weight: w, Sim: m.Sim}
	}
	return er.NewMatcher(weights, r.sp.Resolve.Threshold)
}

func pruning(ps *server.PruneSpec) (metablocking.WeightScheme, metablocking.PruneAlgo, error) {
	if ps == nil {
		return 0, 0, fmt.Errorf("the benchmark's resolve request needs a pruning stage")
	}
	schemes := map[string]metablocking.WeightScheme{"ARCS": metablocking.ARCS, "CBS": metablocking.CBS,
		"ECBS": metablocking.ECBS, "JS": metablocking.JS, "EJS": metablocking.EJS}
	algos := map[string]metablocking.PruneAlgo{"WEP": metablocking.WEP, "CEP": metablocking.CEP,
		"WNP": metablocking.WNP, "CNP": metablocking.CNP}
	s, ok1 := schemes[strings.ToUpper(ps.Scheme)]
	a, ok2 := algos[strings.ToUpper(ps.Algo)]
	if !ok1 || !ok2 {
		return 0, 0, fmt.Errorf("unknown pruning %s/%s", ps.Scheme, ps.Algo)
	}
	return s, a, nil
}
