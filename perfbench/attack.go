package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/advisor"
	"repro/internal/experiments"
	"repro/internal/pipa"
)

// attackVictims are the stress-tested advisors: the three learned victims
// of the paper's Fig. 7 and the Heuristic control, whose AD must be 0.
var attackVictims = []string{"DQN-b", "DRLindex-b", "SWIRL", "Heuristic"}

// attackInjectors is the Def. 2.5 RD pair: the full attack and the random
// reference.
var attackInjectors = []string{"PIPA", "FSM"}

// runAttack: set-up builds the fast-scale TPC-H SF1 instance and trains
// every victim on NormalWorkload(round); each timed round stress-tests a
// fresh clone of each victim by each injector.
func runAttack(ctx context.Context, r *Run) error {
	t0 := time.Now()
	s := experiments.NewSetup("tpch", 1, experiments.ScaleFast)
	s.Seed, s.PipaCfg.Seed, s.Workers = r.Seed, r.Seed, 1
	type trained struct {
		name string
		ia   advisor.Advisor
	}
	victims := make([][]trained, r.Rounds)
	for round := range victims {
		w := s.NormalWorkload(round)
		for _, name := range attackVictims {
			start := time.Now()
			ia, err := s.TrainAdvisor(name, round, w)
			if name != "Heuristic" { // trains nothing; keep it out of the median
				r.spans.add("advisor.train", time.Since(start).Seconds())
			}
			if err != nil {
				return fmt.Errorf("train %s: %w", name, err)
			}
			if _, ok := ia.(advisor.Cloner); !ok {
				return fmt.Errorf("victim %s cannot be cloned", name)
			}
			victims[round] = append(victims[round], trained{name, ia})
		}
	}
	r.E2E["setup_s"] = time.Since(t0).Seconds()

	st := s.Tester()
	injectors := make(map[string]pipa.Injector)
	for _, inj := range pipa.PaperInjectors(st) {
		injectors[inj.Name()] = inj
	}
	chk := newAttackChecker(s.Schema, s.AdvCfg.Budget)

	cw := r.openCounters()
	prof, err := r.startProfile()
	if err != nil {
		return err
	}
	m := startMeter()
	var walls []float64
	var recs []attackRecord
	for round, vs := range victims {
		w := s.NormalWorkload(round)
		for _, v := range vs {
			for _, injName := range attackInjectors {
				clone := v.ia.(advisor.Cloner).CloneAdvisor()
				start := time.Now()
				res := st.StressTest(ctx, clone, injectors[injName], w, s.PipaCfg.Na)
				walls = append(walls, time.Since(start).Seconds())
				recs = append(recs, attackRecord{Result: res, Round: round, Requested: s.PipaCfg.Na})
			}
		}
	}
	wall, cpu := m.since()
	allocMiB, gcs := m.memSince()
	cw.close()
	if err := prof.stop(r); err != nil {
		return err
	}

	n := float64(len(walls))
	r.timedWall = wall
	r.E2E["ops_per_s"] = n / wall
	r.E2E["op_cpu_ms"] = 1000 * cpu / n
	r.E2E["op_p50_ms"] = 1000 * median(walls)
	r.E2E["round_cpu_s"] = cpu / float64(r.Rounds)

	// Output checks run after the timed phase, on a fresh cost model.
	for _, rec := range recs {
		w := s.NormalWorkload(rec.Round)
		start := time.Now()
		err := chk.check(rec, w)
		r.spans.add("cost.workload_cost", time.Since(start).Seconds()/2) // two sweeps per check
		r.op("stress_test", err)
		r.digestf("round=%d %s/%s AD=%+.6f base=%v poisoned=%v inj=%d",
			rec.Round, rec.Advisor, rec.Injector, rec.AD, rec.BaselineIndexes, rec.PoisonedIndexes, rec.InjectionSize)
	}

	if r.Traced {
		r.Layer["runtime.alloc_mb_per_op"] = allocMiB / n
		r.Layer["runtime.gc_cycles"] = gcs
		r.Layer["advisor.train_s"] = r.spans.median("advisor.train")
		r.Layer["advisor.retrain_s"] = median(programSpans("retrain"))
		r.Layer["advisor.recommend_ms"] = 1000 * median(append(programSpans("recommend:baseline"), programSpans("recommend:poisoned")...))
		r.Layer["advisor.episode_steps"] = cw.delta("advisor_episode_steps_total")
		r.Layer["pipa.probe_s"] = median(programSpans("pipa.probe"))
		r.Layer["pipa.inject_s"] = median(programSpans("pipa.inject"))
		r.Layer["pipa.inject_accept_rate"] = ratio(cw.delta("pipa_inject_accepted_total"), cw.delta("pipa_inject_attempts_total"))
		r.Layer["qgen.accept_rate"] = ratio(cw.delta("qgen_generate_accepted_total"), cw.delta("qgen_generate_attempts_total"))
		r.Layer["cost.workload_cost_ms"] = 1000 * r.spans.median("cost.workload_cost")
		calls := cw.delta("cost_whatif_calls_total")
		r.Layer["cost.whatif_calls"] = calls
		r.Layer["cost.whatif_hit_rate"] = ratio(cw.delta("cost_whatif_hits_total"), calls)
		r.Layer["cost.plans"] = cw.delta("cost_plans_total")
	}
	return nil
}

// attackRecord is one stress test's reported output plus what it was asked.
type attackRecord struct {
	pipa.Result
	Round     int
	Requested int // injection size asked of the injector
}
