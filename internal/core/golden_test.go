package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/agg"
	"repro/internal/model"
	"repro/internal/workload"
)

// Golden access traces: every sequential algorithm's exact access sequence,
// Stats, answer and θ on three small databases, captured once and compared
// on every run. A refactor of the read path (how a single access reaches a
// backend, how batches are booked, how the algorithms loop) must leave all
// of them byte-identical. To regenerate after an intended behaviour change,
// delete testdata/golden and run the test twice: the first run writes the
// files and fails, the second compares; docs/GOLDEN-CHANGES.md lists each
// regeneration with what it moved.

const goldenDir = "testdata/golden"

// goldenDBs are the databases every case runs on: N = 400, m = 3.
func goldenDBs(t *testing.T) []struct {
	name string
	db   *model.Database
} {
	t.Helper()
	spec := func(seed int64) workload.Spec { return workload.Spec{N: 400, M: 3, Seed: seed} }
	uniform, err := workload.IndependentUniform(spec(11))
	if err != nil {
		t.Fatal(err)
	}
	zipf, err := workload.Zipf(spec(12), 1.2)
	if err != nil {
		t.Fatal(err)
	}
	plateau, err := workload.Plateau(spec(13), 6)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		db   *model.Database
	}{{"uniform", uniform}, {"zipf", zipf}, {"plateau", plateau}}
}

// goldenCase is one algorithm configuration. faulty marks the
// failure-aware algorithms, which also run on the faulty stack. A case with
// sameAs has no file of its own: its record must equal that case's in
// everything but Stats.BoundRecomputes, which counts a different
// evaluation discipline on each side (a folded table orders its groups by
// K, an Apply twin refreshes its groups lazily by cached B).
type goldenCase struct {
	name   string
	alg    func() Algorithm
	agg    func(m int) agg.Func
	policy access.Policy
	faulty bool
	sameAs string
}

// avgAlias is Avg behind a type agg did not construct, under Avg's own
// name: a bound table must evaluate it through Apply, and its runs must
// match Avg's to the bit.
type avgAlias struct{ agg.Func }

func newAvgAlias(m int) agg.Func { return avgAlias{agg.Avg(m)} }

func goldenCases() []goldenCase {
	costs := access.CostModel{CS: 1, CR: 4}
	cases := []goldenCase{
		{name: "TA-avg", alg: func() Algorithm { return &TA{} }, agg: agg.Avg, faulty: true},
		{name: "TA-min", alg: func() Algorithm { return &TA{} }, agg: agg.Min, faulty: true},
		{name: "TA-theta1.5", alg: func() Algorithm { return &TA{Theta: 1.5} }, agg: agg.Avg, faulty: true},
		{name: "TA-memo", alg: func() Algorithm { return &TA{Memoize: true} }, agg: agg.Avg, faulty: true},
		{name: "TAz", alg: func() Algorithm { return &TA{} }, agg: agg.Avg, policy: access.OnlySorted(0, 1), faulty: true},
		{name: "TA-strict-batch32", alg: func() Algorithm { return &TA{StrictStop: true, Batch: 32} }, agg: agg.Avg, faulty: true},
		{name: "TA-cost-aware", alg: func() Algorithm { return &CostAwareTA{Costs: costs} }, agg: agg.Avg, faulty: true},
		{name: "NRA", alg: func() Algorithm { return &NRA{} }, agg: agg.Avg, faulty: true},
		{name: "CA", alg: func() Algorithm { return &CA{Costs: costs} }, agg: agg.Avg, faulty: true},
		{name: "Intermittent", alg: func() Algorithm { return &Intermittent{Costs: costs} }, agg: agg.Avg, faulty: true},
		{name: "FA", alg: func() Algorithm { return FA{} }, agg: agg.Avg},
		{name: "Naive", alg: func() Algorithm { return Naive{} }, agg: agg.Avg},
		{name: "MaxTopK", alg: func() Algorithm { return MaxTopK{} }, agg: agg.Max},
	}
	// The bound-table owners under every aggregation agg constructs for
	// them by kind, under Median (evaluated through Apply) and under
	// avgAlias.
	tables := []goldenCase{
		{name: "NRA", alg: func() Algorithm { return &NRA{} }},
		{name: "CA", alg: func() Algorithm { return &CA{Costs: costs} }},
		{name: "TA-cost-aware", alg: func() Algorithm { return &CostAwareTA{Costs: costs} }},
	}
	aggs := []struct {
		name string
		agg  func(m int) agg.Func
	}{{"min", agg.Min}, {"sum", agg.Sum}, {"max", agg.Max}, {"median", agg.Median}, {"avgalias", newAvgAlias}}
	for _, a := range aggs {
		for _, c := range tables {
			c.agg, c.faulty = a.agg, true
			if a.name == "avgalias" {
				c.sameAs = c.name
			}
			c.name += "-" + a.name
			cases = append(cases, c)
		}
	}
	return cases
}

// faultyStack builds Remote(cS 1, cR 4) → Faulty(rate 0.05, seeded per
// list) → one shared cache over db's lists, with a retry policy whose
// backoff never sleeps.
func faultyStack(db *model.Database, policy access.Policy) (*access.Source, *access.Cache) {
	cache := access.NewCache(access.CacheConfig{PageSize: 8, Pages: 4, ColdPages: 8, Memo: 64})
	lists := make([]access.ListSource, db.M())
	for i := range lists {
		remote := access.NewRemote(db.List(i), access.CostModel{CS: 1, CR: 4}, access.Latency{})
		faulty := access.NewFaulty(remote, access.FaultPlan{Seed: uint64(101 + i), Rate: 0.05})
		lists[i] = cache.Wrap(i, faulty)
	}
	src := access.FromLists(lists, policy)
	src.SetRetry(access.Retry{MaxAttempts: 4, Budget: 256, Base: time.Nanosecond, Max: time.Nanosecond})
	return src, cache
}

// goldenRecord renders one run: answer, θ, rounds, Stats, error, cache
// accounting (faulty stack only) and the full access trace.
func goldenRecord(res *Result, err error, cache *access.Cache, trace *access.Trace) string {
	var b strings.Builder
	if res != nil {
		b.WriteString("items:")
		for _, it := range res.Items {
			fmt.Fprintf(&b, " %d:%v[%v,%v]", it.Object, it.Grade, it.Lower, it.Upper)
		}
		fmt.Fprintf(&b, "\nexact: %v\ntheta: %v\nrounds: %d\nstats: %+v\n", res.GradesExact, res.Theta, res.Rounds, res.Stats)
	}
	errText := "<nil>"
	if err != nil {
		errText = err.Error()
		var ae *AccessError
		if errors.As(err, &ae) {
			errText = fmt.Sprintf("access error, ceiling %v: %v", ae.Ceiling, ae.Err)
		}
	}
	fmt.Fprintf(&b, "err: %s\n", errText)
	if cache != nil {
		fmt.Fprintf(&b, "cache: %+v\n", cache.Stats())
	}
	fmt.Fprintf(&b, "trace: %s\n", trace.String())
	return b.String()
}

// TestGoldenAccessTraces runs every golden case and compares its record
// with the committed file.
func TestGoldenAccessTraces(t *testing.T) {
	const k = 10
	for _, d := range goldenDBs(t) {
		for _, stack := range []string{"plain", "faulty"} {
			for _, c := range goldenCases() {
				if stack == "faulty" && !c.faulty {
					continue
				}
				name := fmt.Sprintf("%s-%s-%s", d.name, stack, c.name)
				t.Run(name, func(t *testing.T) {
					var (
						src   *access.Source
						cache *access.Cache
					)
					if stack == "faulty" {
						src, cache = faultyStack(d.db, c.policy)
					} else {
						src = access.New(d.db, c.policy)
					}
					trace := src.StartTrace()
					res, err := c.alg().Run(src, c.agg(d.db.M()), k)
					got := goldenRecord(res, err, cache, trace)
					file := name
					if c.sameAs != "" {
						file = fmt.Sprintf("%s-%s-%s", d.name, stack, c.sameAs)
					}
					path := filepath.Join(goldenDir, file+".txt")
					want, rerr := os.ReadFile(path)
					if os.IsNotExist(rerr) {
						if werr := os.MkdirAll(goldenDir, 0o755); werr != nil {
							t.Fatal(werr)
						}
						if werr := os.WriteFile(path, []byte(got), 0o644); werr != nil {
							t.Fatal(werr)
						}
						t.Fatalf("wrote missing golden file %s; rerun to compare", path)
					}
					if rerr != nil {
						t.Fatal(rerr)
					}
					if c.sameAs != "" {
						got, want = maskRecomputes(got), []byte(maskRecomputes(string(want)))
					}
					if got != string(want) {
						t.Errorf("%s differs from the golden record\n%s", path, firstDiff(string(want), got))
					}
				})
			}
		}
	}
}

// recomputesField matches the BoundRecomputes field of a record's stats.
var recomputesField = regexp.MustCompile(`BoundRecomputes:\d+`)

// maskRecomputes blanks the BoundRecomputes field of a record.
func maskRecomputes(record string) string {
	return recomputesField.ReplaceAllString(record, "BoundRecomputes:-")
}

// firstDiff describes the first line on which want and got differ, with
// the first differing trace entry when the traces diverge.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w == g {
			continue
		}
		if strings.HasPrefix(w, "trace: ") && strings.HasPrefix(g, "trace: ") {
			wf, gf := strings.Fields(w), strings.Fields(g)
			for j := 0; j < len(wf) || j < len(gf); j++ {
				if j >= len(wf) || j >= len(gf) || wf[j] != gf[j] {
					lo := j - 3
					if lo < 1 {
						lo = 1
					}
					return fmt.Sprintf("trace entry %d: want %v, got %v", j-1, window(wf, lo, j+3), window(gf, lo, j+3))
				}
			}
		}
		return fmt.Sprintf("line %d:\nwant %s\ngot  %s", i+1, w, g)
	}
	return "records differ"
}

func window(fs []string, lo, hi int) []string {
	if hi > len(fs) {
		hi = len(fs)
	}
	if lo > hi {
		lo = hi
	}
	return fs[lo:hi]
}
