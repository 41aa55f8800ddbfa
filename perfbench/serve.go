package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"repro/internal/advisor"
	"repro/internal/advisor/heuristic"
	"repro/internal/advisor/registry"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/pipa"
	"repro/internal/qgen"
	"repro/internal/serve"
	"repro/internal/workload"
)

// serveShape fixes the serve workload's inputs apart from the seed.
type serveShape struct {
	Trajectories int // training trajectories, as advisord's -trajectories
	Passes       int // seeded permutations of the pool the client sends per round
	PoolSize     int // distinct request workloads; sizes cycle through 5..25 queries
	ProbeEpochs  int // PIPA probing epochs of the set-up injection
	Setups       int // set-ups built per run; setup_s is their median
}

var defaultServe = serveShape{
	Trajectories: 120, Passes: 3, PoolSize: 63, ProbeEpochs: 10, Setups: 3,
}

// The served advisor and its full-tier replicas, as advisord's defaults.
const (
	serveAdvisor  = "DQN-b"
	serveReplicas = 2
)

// Seed offsets of the serve workload's independent input streams.
const (
	poolStream     = 3_000_000
	scheduleStream = 4_000_000
	batchStream    = 5_000_000
	canaryStream   = 7_777_777 // as cmd/advisord
)

// serveInputs is everything the serve workload sends, generated from the
// seed before the server exists.
type serveInputs struct {
	schema  *catalog.Schema
	initial *workload.Workload // first training workload
	canary  *workload.Workload
	pool    []*workload.Workload
	bodies  [][]byte             // marshalled /v1/recommend bodies, one per pool entry
	batches []*workload.Workload // one /v1/update batch per round
	poison  []bool               // whether the round's batch carries the injection
}

// serveRun is what the serve workload observed.
type serveRun struct {
	inputs   *serveInputs
	start    uint64 // model version before the first round
	rounds   []serveRound
	answers  []answered
	verdicts []string
}

// newServeVictim builds the advisor, oracle and trainer as cmd/advisord
// does (screen strategy none) and trains it on the initial workload.
func newServeVictim(seed int64, sh serveShape, in *serveInputs) (*guard.Trainer, *advisor.Env, advisor.Config, *cost.WhatIf, error) {
	whatIf := cost.NewWhatIf(cost.NewModel(in.schema))
	env := advisor.NewEnv(in.schema, whatIf)
	cfg := advisor.DefaultConfig()
	cfg.Trajectories = sh.Trajectories
	cfg.Seed = seed
	inner, err := registry.New(serveAdvisor, env, cfg)
	if err != nil {
		return nil, nil, cfg, nil, err
	}
	trainer, err := guard.NewTrainer(inner, guard.Config{Budget: 0.02, Canary: in.canary, Eval: whatIf})
	if err != nil {
		return nil, nil, cfg, nil, err
	}
	trainer.Train(in.initial)
	return trainer, env, cfg, whatIf, nil
}

// newServeInputs draws the request pool and the clean update batches.
func newServeInputs(seed int64, sh serveShape, rounds int) (*serveInputs, error) {
	s := catalog.TPCH(1)
	tpl := workload.TemplatesFor(s)
	size := workload.DefaultSize(s)
	in := &serveInputs{
		schema:  s,
		initial: workload.GenerateNormal(s, tpl, size, rand.New(rand.NewSource(seed))),
		canary:  workload.GenerateNormal(s, tpl, max(4, size/2), rand.New(rand.NewSource(seed*100000+canaryStream))),
	}
	// Request sizes are fixed, so every seed asks for the same amount of
	// work; the seed draws the queries.
	rng := rand.New(rand.NewSource(seed*100000 + poolStream))
	for i := 0; i < sh.PoolSize; i++ {
		w := workload.GenerateNormal(s, tpl, 5+i%21, rng)
		req := serve.RecommendRequest{Freqs: w.Freqs}
		for _, q := range w.Queries {
			req.Queries = append(req.Queries, q.String())
		}
		b, err := json.Marshal(req)
		if err != nil {
			return nil, fmt.Errorf("marshal request: %w", err)
		}
		in.pool = append(in.pool, w)
		in.bodies = append(in.bodies, b)
	}
	for k := 0; k < rounds; k++ {
		brng := rand.New(rand.NewSource(seed*100000 + batchStream + int64(k)))
		in.batches = append(in.batches, workload.GenerateNormal(s, tpl, size, brng))
		in.poison = append(in.poison, k%2 == 1)
	}
	return in, nil
}

// poisonBatches merges a PIPA injection, built against a clone of the
// trained victim with the attacker's own oracle, into every other batch.
func poisonBatches(ctx context.Context, seed int64, sh serveShape, in *serveInputs, victim advisor.Advisor) error {
	cl, ok := victim.(advisor.Cloner)
	if !ok {
		return fmt.Errorf("victim %s cannot be cloned", victim.Name())
	}
	attackerOracle := cost.NewWhatIf(cost.NewModel(in.schema))
	opts := qgen.DefaultOptions()
	opts.CorpusSize = 150 // the fast experiment scale's corpus
	gen := qgen.TrainIABART(qgen.NewFSM(in.schema), attackerOracle, nil, opts, 3)
	pcfg := pipa.DefaultConfig(in.schema)
	pcfg.P, pcfg.Seed = sh.ProbeEpochs, seed
	st := pipa.NewStressTester(in.schema, attackerOracle, gen, pcfg)
	inj := pipa.PIPAInjector{Tester: st}.BuildInjection(ctx, cl.CloneAdvisor(), pcfg.Na)
	if inj.Len() == 0 {
		return fmt.Errorf("PIPA built an empty injection")
	}
	for k, p := range in.poison {
		if p {
			in.batches[k] = in.batches[k].Merge(inj)
		}
	}
	return nil
}

// runServe: set-up builds the inputs, trains the victim, builds the
// injection and starts the server over loopback; each timed round is a
// closed-loop read phase followed by one awaited update.
func runServe(ctx context.Context, r *Run) error {
	sr, err := serveWorkload(ctx, r, defaultServe)
	if err != nil {
		return err
	}
	for _, rd := range sr.rounds {
		r.digestf("update version=%d outcome=%s regression=%.6f", rd.update.ModelVersion, rd.update.Outcome, rd.update.CanaryRegression)
	}
	// round_cpu_s includes the updates' retrains, and a frozen update skips
	// its retrain: read it beside the verdicts that shaped it.
	r.digestf("verdicts=%s round_cpu_s=%.4f", strings.Join(sr.verdicts, ","), r.E2E["round_cpu_s"])
	// One fingerprint over every answer in request order: a change that
	// moves any recommendation shows as a different hash.
	h := sha256.New()
	for _, a := range sr.answers {
		fmt.Fprintf(h, "%d %d %v %.17g\n", a.pool, a.resp.ModelVersion, a.resp.Indexes, a.resp.CostReduction)
	}
	r.digestf("answers=%d sha256=%x", len(sr.answers), h.Sum(nil)[:8])
	return nil
}

// serveStack is one set-up of the serve workload: its inputs and the
// running server behind a loopback listener.
type serveStack struct {
	in     *serveInputs
	cfg    advisor.Config
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
}

// setUpServe builds the inputs, trains the victim, builds the injection and
// starts the server, as cmd/advisord builds it, over loopback.
func setUpServe(ctx context.Context, r *Run, sh serveShape) (*serveStack, error) {
	in, err := newServeInputs(r.Seed, sh, r.Rounds)
	if err != nil {
		return nil, err
	}
	trainer, env, cfg, whatIf, err := newServeVictim(r.Seed, sh, in)
	if err != nil {
		return nil, err
	}
	if err := poisonBatches(ctx, r.Seed, sh, in, trainer.Inner()); err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(serve.Config{
		Trainer:    trainer,
		NewReplica: func() (advisor.Advisor, error) { return registry.New(serveAdvisor, env, cfg) },
		Fallback:   heuristic.New(env, cfg.Budget, false),
		WhatIf:     whatIf,
		Schema:     in.schema,
		Replicas:   serveReplicas,
		TraceAll:   r.Traced,
	})
	if err != nil {
		return nil, err
	}
	return &serveStack{
		in: in, cfg: cfg, srv: srv,
		ts:     httptest.NewServer(srv.Handler()),
		client: &http.Client{Transport: &http.Transport{}},
	}, nil
}

// close stops the listener and drains the server.
func (st *serveStack) close() {
	st.ts.Close()
	st.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := st.srv.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: drain:", err)
	}
}

// serveWorkload runs the serve workload with the given shape and returns
// what it observed; the self-test calls it at reduced size.
func serveWorkload(ctx context.Context, r *Run, sh serveShape) (*serveRun, error) {
	if r.Traced {
		// Keep every request's trace for the per-layer table.
		obs.Default.Flight.SetCap(r.Rounds*(sh.Passes*sh.PoolSize+1) + 16)
	}
	// Set up several times and keep the last stack: setup_s is their median.
	var stack *serveStack
	var setups []float64
	for i := 0; i < sh.Setups; i++ {
		if stack != nil {
			stack.close()
		}
		t0 := time.Now()
		var err error
		if stack, err = setUpServe(ctx, r, sh); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer stack.close()
	r.E2E["setup_s"] = median(setups)
	in, cfg, srv, client, url := stack.in, stack.cfg, stack.srv, stack.client, stack.ts.URL

	sr := &serveRun{inputs: in, start: srv.Version()}
	var lat []float64 // client-side seconds per recommend
	var readCPU, updCPU float64
	var commitCPU []float64  // CPU of each committed update
	var roundRates []float64 // answered reads per second of each read phase
	var updWall []float64
	cw := r.openCounters()
	prof, err := r.startProfile()
	if err != nil {
		return nil, err
	}
	m := startMeter()
	for round := 0; round < r.Rounds; round++ {
		rm := startMeter()
		obsd := readPhase(ctx, client, url, in, r.Seed, round, sh)
		w, c := rm.since()
		roundRates = append(roundRates, float64(len(obsd))/w)
		readCPU += c

		um := startMeter()
		upd, err := postUpdate(ctx, client, url, in.batches[round])
		w, c = um.since()
		updWall = append(updWall, w)
		updCPU += c

		rd := serveRound{update: upd}
		for _, o := range obsd {
			lat = append(lat, o.seconds)
			r.op("recommend", o.err)
			if o.err == nil {
				rd.readVersions = append(rd.readVersions, o.resp.ModelVersion)
				sr.answers = append(sr.answers, answered{pool: o.pool, resp: o.resp, seconds: o.seconds})
			}
		}
		r.op("update", err)
		if err != nil {
			// Without a verdict the version bookkeeping cannot continue.
			return nil, fmt.Errorf("round %d update: %w", round, err)
		}
		if upd.Outcome == "committed" {
			commitCPU = append(commitCPU, c)
		}
		sr.rounds = append(sr.rounds, rd)
		sr.verdicts = append(sr.verdicts, upd.Outcome)
	}
	wall, _ := m.since()
	allocMiB, gcs := m.memSince()
	cw.close()
	if err := prof.stop(r); err != nil {
		return nil, err
	}

	reads := float64(len(lat))
	r.timedWall = wall
	r.E2E["ops_per_s"] = median(roundRates) // a stall on the shared host skews one round, not the run
	r.E2E["op_cpu_ms"] = 1000 * readCPU / reads
	r.E2E["op_p50_ms"] = 1000 * median(lat)
	r.E2E["round_cpu_s"] = (readCPU + updCPU) / float64(r.Rounds)

	// Output checks, after the timed phase. Per-answer checks fail the
	// answer's operation (already counted above as attempted); properties
	// across answers fail the run.
	chk := &serveChecker{newIndexChecker(in.schema, cfg.Budget)}
	badAnswers := 0
	for _, a := range sr.answers {
		if err := chk.recommend(in.pool[a.pool], a.resp); err != nil {
			badAnswers++
			fmt.Fprintf(os.Stderr, "perfbench: recommend %d: %v\n", a.pool, err)
		}
	}
	if badAnswers > 0 {
		r.ops["recommend"].failed += badAnswers
	}
	if err := checkStable(sr.answers); err != nil {
		r.problem(err)
	}
	if err := checkVersions(sr.start, sr.rounds); err != nil {
		r.problem(err)
	}

	if r.Traced {
		r.Layer["runtime.alloc_mb_per_op"] = allocMiB / reads
		r.Layer["runtime.gc_cycles"] = gcs
		r.Layer["serve.restores"] = cw.delta("serve_restores_total")
		r.Layer["serve.swaps"] = cw.delta("serve_swaps_total")
		r.Layer["guard.commits"] = cw.delta("guard_commits_total")
		r.Layer["guard.rollbacks"] = cw.delta("guard_rollbacks_total")
		r.Layer["serve.recommend_p99_ms"] = 1000 * quantile(lat, 0.99)
		r.Layer["serve.update_p50_ms"] = 1000 * median(updWall)
		r.Layer["guard.commit_cpu_ms"] = 1000 * median(commitCPU)
		calls := cw.delta("cost_whatif_calls_total")
		r.Layer["cost.whatif_calls"] = calls
		r.Layer["cost.whatif_hit_rate"] = ratio(cw.delta("cost_whatif_hits_total"), calls)
		if err := serveTraceLayers(r, client, url, sr.answers); err != nil {
			return nil, err
		}
	}
	return sr, nil
}

// readResult is one recommend request as the client saw it.
type readResult struct {
	pool    int
	seconds float64
	resp    *serve.RecommendResponse
	err     error
}

// readPhase runs the round's closed loop: one client sends every pool
// request Passes times in a seeded order, the next only after the previous
// answer.
func readPhase(ctx context.Context, client *http.Client, url string, in *serveInputs, seed int64, round int, sh serveShape) []readResult {
	rng := rand.New(rand.NewSource(seed*100000 + scheduleStream + int64(round)*64))
	var out []readResult
	for p := 0; p < sh.Passes; p++ {
		for _, i := range rng.Perm(len(in.pool)) {
			start := time.Now()
			resp, err := postRecommend(ctx, client, url, in.bodies[i])
			out = append(out, readResult{pool: i, seconds: time.Since(start).Seconds(), resp: resp, err: err})
		}
	}
	return out
}

func postRecommend(ctx context.Context, client *http.Client, url string, body []byte) (*serve.RecommendResponse, error) {
	var resp serve.RecommendResponse
	if err := postJSON(ctx, client, url+"/v1/recommend", body, &resp); err != nil {
		return nil, err
	}
	if resp.Tier != "full" {
		return &resp, fmt.Errorf("answered from tier %q", resp.Tier)
	}
	return &resp, nil
}

// postUpdate sends one batch and waits for the guard's verdict. The
// deadline is generous: a slow retrain must not turn into a 504.
func postUpdate(ctx context.Context, client *http.Client, url string, batch *workload.Workload) (*serve.UpdateResponse, error) {
	req := serve.RecommendRequest{Freqs: batch.Freqs, TimeoutMS: 60_000, Source: "perfbench"}
	for _, q := range batch.Queries {
		req.Queries = append(req.Queries, q.String())
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("marshal update: %w", err)
	}
	var resp serve.UpdateResponse
	if err := postJSON(ctx, client, url+"/v1/update", body, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

func postJSON(ctx context.Context, client *http.Client, url string, body []byte, into any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer drain(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		return fmt.Errorf("%s: decode: %w", url, err)
	}
	return nil
}

// serveTraceLayers reads the server's request spans from /debug/traces and
// fills the serve and guard span metrics.
func serveTraceLayers(r *Run, client *http.Client, url string, answers []answered) error {
	resp, err := client.Get(url + "/debug/traces")
	if err != nil {
		return fmt.Errorf("read /debug/traces: %w", err)
	}
	defer drain(resp.Body)
	var dump struct {
		Traces []*obs.FlightRecord `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		return fmt.Errorf("decode /debug/traces: %w", err)
	}
	spans := make(map[string][]float64)
	rootByID := make(map[string]float64)
	var walk func(s *obs.TSpanSnapshot)
	walk = func(s *obs.TSpanSnapshot) {
		if s.DurUs >= 0 {
			spans[s.Name] = append(spans[s.Name], float64(s.DurUs)/1000)
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	for _, t := range dump.Traces {
		if t.Root == nil {
			continue
		}
		if t.Name == "recommend" {
			rootByID[t.TraceID] = float64(t.Root.DurUs) / 1000
		}
		walk(t.Root)
	}
	var server, httpMs []float64
	for _, a := range answers {
		if root, ok := rootByID[a.resp.TraceID]; ok {
			server = append(server, root)
			httpMs = append(httpMs, 1000*a.seconds-root)
		}
	}
	r.Layer["serve.restore_p50_ms"] = median(spans["serve:restore"])
	r.Layer["serve.infer_p50_ms"] = median(spans["serve:infer"])
	r.Layer["serve.replica_wait_p50_ms"] = median(spans["serve:replica-wait"])
	r.Layer["serve.server_p50_ms"] = median(server)
	r.Layer["serve.http_ms"] = median(httpMs)
	r.Layer["serve.queue_wait_ms"] = median(spans["serve:queue-wait"])
	r.Layer["guard.update_ms"] = median(spans["guard:update"])
	r.Layer["guard.canary_ms"] = median(spans["guard:canary"])
	r.Layer["guard.snapshot_ms"] = median(spans["guard:snapshot"])
	return nil
}

// drain discards the rest of a response body so the connection is reused.
func drain(rc io.ReadCloser) {
	_, _ = io.Copy(io.Discard, rc)
	rc.Close()
}
