package main

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/advisor"
	"repro/internal/advisor/registry"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/experiments"
	"repro/internal/guard"
	"repro/internal/pipa"
	"repro/internal/serve"
	"repro/internal/workload"
)

// tinyAttack stress-tests a tiny-scale victim and returns the record, the
// target workload and a checker for it.
func tinyAttack(t *testing.T, victim string) (attackRecord, *workload.Workload, *attackChecker) {
	t.Helper()
	s := experiments.NewSetup("tpch", 1, experiments.ScaleTiny)
	w := s.NormalWorkload(0)
	ia, err := s.TrainAdvisor(victim, 0, w)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Tester()
	res := st.StressTest(context.Background(), ia, pipa.FSMInjector{Tester: st}, w, s.PipaCfg.Na)
	return attackRecord{Result: res, Requested: s.PipaCfg.Na}, w, newAttackChecker(s.Schema, s.AdvCfg.Budget)
}

func TestAttackCheckerRejectsTamperedOutput(t *testing.T) {
	rec, w, chk := tinyAttack(t, "DQN-b")
	if err := chk.check(rec, w); err != nil {
		t.Fatalf("untampered stress test rejected: %v", err)
	}
	tamper := map[string]func(r *attackRecord){
		"AD off by 1e-6": func(r *attackRecord) { r.AD += 1e-6 },
		"baseline cost":  func(r *attackRecord) { r.BaselineCost *= 1 + 1e-6 },
		"unknown column": func(r *attackRecord) {
			r.PoisonedIndexes = append([]string{"lineitem(l_nosuch)"}, r.PoisonedIndexes[1:]...)
		},
		"over budget": func(r *attackRecord) {
			r.PoisonedIndexes = append(r.PoisonedIndexes, "customer(c_custkey)", "part(p_size)", "orders(o_custkey)")
		},
		"oversized injection":    func(r *attackRecord) { r.InjectionSize = r.Requested + 1 },
		"duplicate index":        func(r *attackRecord) { r.BaselineIndexes = append(r.BaselineIndexes, r.BaselineIndexes[0]) },
		"malformed index key":    func(r *attackRecord) { r.BaselineIndexes = []string{"lineitem"} },
		"poisoned index swapped": func(r *attackRecord) { r.PoisonedIndexes = []string{"nation(n_name)"} },
	}
	for name, f := range tamper {
		bad := rec
		bad.BaselineIndexes = append([]string(nil), rec.BaselineIndexes...)
		bad.PoisonedIndexes = append([]string(nil), rec.PoisonedIndexes...)
		f(&bad)
		if err := chk.check(bad, w); err == nil {
			t.Errorf("%s: tampered stress test accepted", name)
		}
	}
}

func TestAttackCheckerHeuristicControl(t *testing.T) {
	rec, w, chk := tinyAttack(t, "Heuristic")
	if err := chk.check(rec, w); err != nil {
		t.Fatalf("Heuristic stress test rejected: %v", err)
	}
	// A consistent but nonzero AD breaks the comparator property.
	bad := rec
	bad.PoisonedIndexes = []string{"nation(n_name)"}
	idx, err := chk.config(bad.PoisonedIndexes)
	if err != nil {
		t.Fatal(err)
	}
	bad.PoisonedCost = chk.workloadCost(w, idx)
	bad.AD = (bad.PoisonedCost - bad.BaselineCost) / bad.BaselineCost
	if err := chk.check(bad, w); err == nil || !strings.Contains(err.Error(), "exactly 0") {
		t.Errorf("Heuristic AD %g accepted (err %v)", bad.AD, err)
	}
}

func TestDefendCheckerRejectsTamperedOutput(t *testing.T) {
	arms := experiments.DefenseArms()
	good := func(rate float64) experiments.DefensePoint {
		p := experiments.DefensePoint{Injector: "PIPA", Rate: rate,
			AD: map[string]experiments.Stats{}, Dropped: map[string]int{}, CleanFP: map[string]int{},
			Commits: map[string]uint64{"guard": 9}, Rollback: map[string]uint64{}}
		if rate > 0 {
			p.Dropped["trim"] = 5
			p.Rollback["guard"] = 2
		}
		p.CleanFP["sanitizer"] = 1 // only trim's clean drops are checked
		return p
	}
	for _, rate := range []float64{0, 1} {
		if err := checkDefendPoint(good(rate), arms); err != nil {
			t.Fatalf("untampered point at rate %g rejected: %v", rate, err)
		}
	}
	tamper := map[string]struct {
		rate float64
		f    func(*experiments.DefensePoint)
	}{
		"AD off by 1e-6":       {1, func(p *experiments.DefensePoint) { p.AD["guard"] = experiments.Stats{Mean: 1e-6, Max: 1e-6} }},
		"negative AD cell":     {0, func(p *experiments.DefensePoint) { p.AD["trim"] = experiments.Stats{Min: -1e-6} }},
		"trim clean drop":      {1, func(p *experiments.DefensePoint) { p.CleanFP["trim"] = 1 }},
		"trim clean drop at 0": {0, func(p *experiments.DefensePoint) { p.CleanFP["trim"] = 1 }},
		"trim drop at 0":       {0, func(p *experiments.DefensePoint) { p.Dropped["trim"] = 2 }},
		"guard rollback at 0":  {0, func(p *experiments.DefensePoint) { p.Rollback["guard"] = 1 }},
	}
	for name, tc := range tamper {
		p := good(tc.rate)
		tc.f(&p)
		if err := checkDefendPoint(p, arms); err == nil {
			t.Errorf("%s: tampered point accepted", name)
		}
	}
}

func TestServeCheckersRejectTamperedOutput(t *testing.T) {
	s := catalog.TPCH(1)
	w := workload.GenerateNormal(s, workload.TemplatesFor(s), 12, rand.New(rand.NewSource(3)))
	chk := &serveChecker{newIndexChecker(s, 4)}
	idx := []cost.Index{cost.NewIndex("lineitem.l_shipdate"), cost.NewIndex("orders.o_orderdate")}
	m := cost.NewModel(s)
	good := serve.RecommendResponse{
		Indexes:       []string{idx[0].Key(), idx[1].Key()},
		CostReduction: 1 - m.WorkloadCost(w.Queries, w.Freqs, idx)/m.WorkloadCost(w.Queries, w.Freqs, nil),
		Tier:          "full", ModelVersion: 3,
	}
	if err := chk.recommend(w, &good); err != nil {
		t.Fatalf("untampered answer rejected: %v", err)
	}
	cached := good
	cached.Tier = "cached"
	if err := chk.recommend(w, &cached); err == nil {
		t.Error("cached-tier answer accepted")
	}
	off := good
	off.CostReduction += 1e-6
	if err := chk.recommend(w, &off); err == nil {
		t.Error("cost_reduction off by 1e-6 accepted")
	}

	other := good
	other.Indexes = []string{idx[0].Key()}
	if err := checkStable([]answered{{0, &good, 0}, {1, &other, 0}, {0, &good, 0}}); err != nil {
		t.Errorf("stable answers rejected: %v", err)
	}
	if err := checkStable([]answered{{0, &good, 0}, {0, &other, 0}}); err == nil {
		t.Error("two answers to one request at one version accepted")
	}

	up := func(outcome string, v uint64) serveRound {
		return serveRound{readVersions: []uint64{}, update: &serve.UpdateResponse{Outcome: outcome, ModelVersion: v}}
	}
	ok := []serveRound{up("committed", 2), up("rolled-back", 2), up("committed", 3)}
	ok[1].readVersions = []uint64{2, 2}
	if err := checkVersions(1, ok); err != nil {
		t.Errorf("consistent versions rejected: %v", err)
	}
	for name, rounds := range map[string][]serveRound{
		"skipped version":          {up("committed", 3)},
		"rollback bumped version":  {up("rolled-back", 2)},
		"commit kept version":      {up("committed", 1)},
		"read saw a stale version": {up("committed", 2), {readVersions: []uint64{1}, update: &serve.UpdateResponse{Outcome: "frozen", ModelVersion: 2}}},
	} {
		if err := checkVersions(1, rounds); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestServeVerdictsReplay runs the serve workload at reduced size, then
// replays its update batches through a guard.Trainer built apart from the
// server, and requires the same verdict sequence.
func TestServeVerdictsReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two advisors")
	}
	sh := serveShape{Trajectories: 40, Passes: 1, PoolSize: 6, ProbeEpochs: 4, Setups: 1}
	r := &Run{Workload: "serve", Seed: 11, Rounds: 4, E2E: make(map[string]float64)}
	sr, err := serveWorkload(context.Background(), r, sh)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.problems) > 0 {
		t.Fatalf("serve output checks failed: %v", r.problems)
	}
	for kind, tally := range r.ops {
		if tally.failed > 0 {
			t.Fatalf("%d of %d %s operations failed", tally.failed, tally.attempted, kind)
		}
	}

	in := sr.inputs
	whatIf := cost.NewWhatIf(cost.NewModel(in.schema))
	cfg := advisor.DefaultConfig()
	cfg.Trajectories, cfg.Seed = sh.Trajectories, r.Seed
	inner, err := registry.New(serveAdvisor, advisor.NewEnv(in.schema, whatIf), cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := guard.NewTrainer(inner, guard.Config{Budget: 0.02, Canary: in.canary, Eval: whatIf})
	if err != nil {
		t.Fatal(err)
	}
	tr.Train(in.initial)
	var replay []string
	for _, b := range in.batches {
		tr.Retrain(b)
		replay = append(replay, tr.LastOutcome().String())
	}
	if strings.Join(replay, ",") != strings.Join(sr.verdicts, ",") {
		t.Fatalf("server verdicts %v, replayed %v", sr.verdicts, replay)
	}
}

func TestModuleShares(t *testing.T) {
	top := []byte(`File: perfbench
Type: cpu
      flat  flat%   sum%        cum   cum%
    600ms 60.00% 60.00%     700ms 70.00%  repro/internal/nn.(*MLP).Backward
    100ms 10.00% 70.00%     100ms 10.00%  repro/internal/advisor/dqn.(*DQN).act
    100ms 10.00% 80.00%     100ms 10.00%  runtime.mallocgc
     30ms  3.00% 83.00%      30ms  3.00%  encoding/json.(*decodeState).object
     20ms  2.00% 85.00%      20ms  2.00%  memeqbody
     50ms  5.00% 90.00%      50ms  5.00%  repro/internal/obs.(*Counter).Inc
    100ms 10.00%   100%     100ms 10.00%  main.runAttack
`)
	got, err := parseTop(top)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"nn": 0.6, "advisor": 0.1, "runtime": 0.12, "stdlib": 0.03, "other": 0.15}
	for m, v := range want {
		if !agree(got[m], v) {
			t.Errorf("%s share %g, want %g", m, got[m], v)
		}
	}
	if _, err := parseTop([]byte("no table here\n")); err == nil {
		t.Error("output without a -top table accepted")
	}
}
