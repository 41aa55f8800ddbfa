package main

// Output checks. Each recomputes what it checks apart from the code under
// test: costs come from a fresh cost.Model (no what-if cache, no delta
// coster), and expected properties come from the paper's definitions, not
// from a stored copy of earlier output.

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/experiments"
	"repro/internal/serve"
	"repro/internal/workload"
)

// relTol is the relative agreement demanded of recomputed costs and ADs.
const relTol = 1e-9

func agree(got, want float64) bool {
	return math.Abs(got-want) <= relTol*math.Max(1, math.Max(math.Abs(got), math.Abs(want)))
}

// parseIndexKey inverts cost.Index.Key: "lineitem(l_partkey,l_suppkey)".
func parseIndexKey(key string) (cost.Index, error) {
	open := strings.IndexByte(key, '(')
	if open <= 0 || !strings.HasSuffix(key, ")") {
		return cost.Index{}, fmt.Errorf("malformed index key %q", key)
	}
	table := key[:open]
	var cols []string
	for _, c := range strings.Split(key[open+1:len(key)-1], ",") {
		if c == "" {
			return cost.Index{}, fmt.Errorf("malformed index key %q", key)
		}
		cols = append(cols, table+"."+c)
	}
	return cost.Index{Columns: cols}, nil
}

// indexChecker validates recommended configurations against a schema.
type indexChecker struct {
	model     *cost.Model
	indexable map[string]bool
	budget    int
}

func newIndexChecker(s *catalog.Schema, budget int) *indexChecker {
	ic := &indexChecker{model: cost.NewModel(s), indexable: make(map[string]bool), budget: budget}
	for _, c := range s.IndexableColumnNames() {
		ic.indexable[c] = true
	}
	return ic
}

// config parses an index configuration and checks it holds at most budget
// distinct indexes, every column of each indexable.
func (ic *indexChecker) config(keys []string) ([]cost.Index, error) {
	if len(keys) > ic.budget {
		return nil, fmt.Errorf("%d indexes exceed budget %d: %v", len(keys), ic.budget, keys)
	}
	seen := make(map[string]bool)
	out := make([]cost.Index, 0, len(keys))
	for _, k := range keys {
		if seen[k] {
			return nil, fmt.Errorf("duplicate index %s in %v", k, keys)
		}
		seen[k] = true
		ix, err := parseIndexKey(k)
		if err != nil {
			return nil, err
		}
		for _, c := range ix.Columns {
			if !ic.indexable[c] {
				return nil, fmt.Errorf("index %s is on non-indexable column %s", k, c)
			}
		}
		out = append(out, ix)
	}
	return out, nil
}

// workloadCost recosts w under the configuration on the fresh model.
func (ic *indexChecker) workloadCost(w *workload.Workload, idx []cost.Index) float64 {
	return ic.model.WorkloadCost(w.Queries, w.Freqs, idx)
}

// attackChecker validates stress-test results.
type attackChecker struct{ *indexChecker }

func newAttackChecker(s *catalog.Schema, budget int) *attackChecker {
	return &attackChecker{newIndexChecker(s, budget)}
}

// check recomputes the stress test's costs and AD (Def. 2.3) from its
// reported index sets, and checks the Heuristic control, the index budget
// and the injection size.
func (c *attackChecker) check(rec attackRecord, w *workload.Workload) error {
	base, err := c.config(rec.BaselineIndexes)
	if err != nil {
		return fmt.Errorf("%s/%s baseline: %w", rec.Advisor, rec.Injector, err)
	}
	pois, err := c.config(rec.PoisonedIndexes)
	if err != nil {
		return fmt.Errorf("%s/%s poisoned: %w", rec.Advisor, rec.Injector, err)
	}
	cb, cp := c.workloadCost(w, base), c.workloadCost(w, pois)
	if !agree(rec.BaselineCost, cb) || !agree(rec.PoisonedCost, cp) {
		return fmt.Errorf("%s/%s costs %g/%g, recomputed %g/%g", rec.Advisor, rec.Injector, rec.BaselineCost, rec.PoisonedCost, cb, cp)
	}
	if ad := (cp - cb) / cb; !agree(rec.AD, ad) {
		return fmt.Errorf("%s/%s AD %.12g, recomputed %.12g", rec.Advisor, rec.Injector, rec.AD, ad)
	}
	if rec.Advisor == "Heuristic" && rec.AD != 0 {
		return fmt.Errorf("Heuristic/%s AD %g, want exactly 0", rec.Injector, rec.AD)
	}
	if rec.InjectionSize > rec.Requested {
		return fmt.Errorf("%s/%s injection of %d queries, asked for %d", rec.Advisor, rec.Injector, rec.InjectionSize, rec.Requested)
	}
	return nil
}

// checkDefendPoint checks one (injector, rate) point of the defense sweep
// over the Heuristic victim. Its Retrain is a no-op, so every AD cell is
// exactly 0. TRIM must never drop a query of the clean held-out canary. At
// rate 0 the batch is clean, so TRIM drops nothing and the guard rolls
// nothing back (the guard arm has no screener; a rollback is how it would
// turn clean traffic away).
func checkDefendPoint(p experiments.DefensePoint, arms []string) error {
	var errs []error
	for _, arm := range arms {
		if st := p.AD[arm]; st.Mean != 0 || st.Min != 0 || st.Max != 0 {
			errs = append(errs, fmt.Errorf("%s rate %g arm %s: AD %+g (min %g, max %g), want exactly 0",
				p.Injector, p.Rate, arm, st.Mean, st.Min, st.Max))
		}
	}
	if p.CleanFP["trim"] != 0 {
		errs = append(errs, fmt.Errorf("%s rate %g: trim dropped %d clean canary queries", p.Injector, p.Rate, p.CleanFP["trim"]))
	}
	if p.Rate == 0 {
		if p.Dropped["trim"] != 0 {
			errs = append(errs, fmt.Errorf("%s rate 0: trim dropped %d queries", p.Injector, p.Dropped["trim"]))
		}
		if p.Rollback["guard"] != 0 {
			errs = append(errs, fmt.Errorf("%s rate 0: guard rolled back %d clean updates", p.Injector, p.Rollback["guard"]))
		}
	}
	return errors.Join(errs...)
}

// serveChecker validates /v1/recommend answers.
type serveChecker struct{ *indexChecker }

// recommend checks one answer: full tier, a valid configuration, and a
// cost_reduction equal to 1 − Σf·c(q,I)/Σf·c(q,∅) on the fresh model.
func (c *serveChecker) recommend(w *workload.Workload, resp *serve.RecommendResponse) error {
	if resp.Tier != "full" {
		return fmt.Errorf("tier %q, want full", resp.Tier)
	}
	idx, err := c.config(resp.Indexes)
	if err != nil {
		return err
	}
	bare := c.workloadCost(w, nil)
	want := 1 - c.workloadCost(w, idx)/bare
	if !agree(resp.CostReduction, want) {
		return fmt.Errorf("cost_reduction %.12g, recomputed %.12g", resp.CostReduction, want)
	}
	return nil
}

// answered is one recommend answer keyed by the request it answered.
type answered struct {
	pool    int // index of the request in the request pool
	resp    *serve.RecommendResponse
	seconds float64 // client-side latency
}

// checkStable checks that identical requests answered by one model
// version got identical answers.
func checkStable(answers []answered) error {
	type key struct {
		pool    int
		version uint64
	}
	first := make(map[key]*serve.RecommendResponse)
	for _, a := range answers {
		k := key{a.pool, a.resp.ModelVersion}
		prev, ok := first[k]
		if !ok {
			first[k] = a.resp
			continue
		}
		if !reflect.DeepEqual(prev.Indexes, a.resp.Indexes) || prev.CostReduction != a.resp.CostReduction {
			return fmt.Errorf("request %d at version %d answered %v (%.12g) and %v (%.12g)",
				a.pool, k.version, prev.Indexes, prev.CostReduction, a.resp.Indexes, a.resp.CostReduction)
		}
	}
	return nil
}

// serveRound is what one round observed: the model version its reads
// saw and the update that closed it.
type serveRound struct {
	readVersions []uint64
	update       *serve.UpdateResponse
}

// checkVersions checks the model version: every read of a round sees the
// round's version, which starts at start, and an update raises it by
// exactly one when committed and leaves it unchanged otherwise.
func checkVersions(start uint64, rounds []serveRound) error {
	v := start
	for i, rd := range rounds {
		for _, rv := range rd.readVersions {
			if rv != v {
				return fmt.Errorf("round %d: read answered by version %d, want %d", i, rv, v)
			}
		}
		want := v
		if rd.update.Outcome == "committed" {
			want = v + 1
		}
		if rd.update.ModelVersion != want {
			return fmt.Errorf("round %d: %s update left version %d, want %d", i, rd.update.Outcome, rd.update.ModelVersion, want)
		}
		v = want
	}
	return nil
}
