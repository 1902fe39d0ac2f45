// Command prove runs a top-k algorithm with access tracing and then
// verifies that the run's observations constitute a *proof* of its answer
// — the paper's Section 5 reading of instance optimality, where the cost
// of the best nondeterministic algorithm is the cost of the shortest proof.
// A correct algorithm must always halt in a proof state; this tool makes
// that checkable for any CSV database.
//
// Usage:
//
//	prove -data db.csv -agg min -k 5 -algo TA
//	prove -data db.csv -agg avg -k 5 -algo NRA -distinct
//	prove -data db.csv -agg avg -k 5 -theta 1.5 -trace
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/access"
	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/instopt"
	"repro/internal/model"
)

func main() {
	var (
		dataPath  = flag.String("data", "", "CSV database file (required)")
		aggName   = flag.String("agg", "min", "aggregation: min|max|sum|avg|product|median|geomean")
		k         = flag.Int("k", 10, "number of answers")
		algoName  = flag.String("algo", "TA", "algorithm: TA|FA|NRA|CA|Naive|MaxTopK|Intermittent")
		theta     = flag.Float64("theta", 0, "θ-approximation parameter (>1 enables TAθ)")
		distinct  = flag.Bool("distinct", false, "assume the distinctness property when verifying")
		showTrace = flag.Bool("trace", false, "print the full access trace")
		cs        = flag.Float64("cs", 1, "sorted access cost cS")
		cr        = flag.Float64("cr", 1, "random access cost cR")
	)
	flag.Parse()
	if *dataPath == "" {
		fmt.Fprintln(os.Stderr, "prove: -data is required")
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(*dataPath)
	if err != nil {
		fatal(err)
	}
	db, err := model.ReadCSV(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	t, err := agg.ByName(*aggName, db.M())
	if err != nil {
		fatal(err)
	}
	costs := access.CostModel{CS: *cs, CR: *cr}
	al, policy, err := algoByName(*algoName, *theta, costs)
	if err != nil {
		fatal(err)
	}
	src := access.New(db, policy)
	trace := src.StartTrace()
	res, err := al.Run(src, t, *k)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s answered top %d (%d sorted + %d random accesses, middleware cost %.6g):\n",
		al.Name(), *k, res.Stats.Sorted, res.Stats.Random, res.Cost(costs))
	for i, it := range res.Items {
		fmt.Printf("%3d. object %-8d [%.6g, %.6g]\n", i+1, it.Object, float64(it.Lower), float64(it.Upper))
	}
	if *showTrace {
		fmt.Printf("trace: %s\n", trace)
	}
	rep, err := instopt.Verify(trace, t, db.N(), res.Objects(), instopt.Options{
		Theta:    *theta,
		Distinct: *distinct,
	})
	if err != nil {
		fatal(err)
	}
	if rep.Valid {
		fmt.Printf("certificate: VALID — answer floor %.6g dominates every outside bound (max %.6g)\n",
			rep.AnswerFloor, rep.Ceiling)
		return
	}
	fmt.Printf("certificate: INVALID — %s\n", rep.Reason)
	os.Exit(1)
}

func algoByName(name string, theta float64, costs access.CostModel) (core.Algorithm, access.Policy, error) {
	switch strings.ToLower(name) {
	case "ta":
		return &core.TA{Theta: theta}, access.AllowAll, nil
	case "fa":
		return core.FA{}, access.AllowAll, nil
	case "nra":
		return &core.NRA{}, access.Policy{NoRandom: true}, nil
	case "ca":
		return &core.CA{Costs: costs}, access.AllowAll, nil
	case "naive":
		return core.Naive{}, access.AllowAll, nil
	case "maxtopk":
		return core.MaxTopK{}, access.Policy{NoRandom: true}, nil
	case "intermittent":
		return &core.Intermittent{Costs: costs}, access.AllowAll, nil
	}
	return nil, access.Policy{}, fmt.Errorf("unknown algorithm %q", name)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "prove:", err)
	os.Exit(1)
}
