package repro_test

import (
	"errors"
	"fmt"

	"repro"
)

// exampleDB builds a small deterministic database: 6 objects, 2
// attributes, no ties among the top grades.
func exampleDB() *repro.Database {
	b := repro.NewBuilder(2)
	b.MustAdd(1, 0.9, 0.8)
	b.MustAdd(2, 0.8, 0.7)
	b.MustAdd(3, 0.6, 0.9)
	b.MustAdd(4, 0.4, 0.5)
	b.MustAdd(5, 0.3, 0.2)
	b.MustAdd(6, 0.1, 0.6)
	return b.MustBuild()
}

// ExampleNewFaultyStack builds a persistent sharded engine whose lists
// sit behind simulated remote backends (declared costs cS=1, cR=4) and a
// per-shard cache shared across queries, with no fault injector: the
// repeated query is served from cache and charged less than the first.
func ExampleNewFaultyStack() {
	db := exampleDB()
	eng, err := repro.NewFaultyStack(db, 2,
		&repro.BackendSpec{SortedCost: 1, RandomCost: 4}, nil,
		&repro.CacheSpec{})
	if err != nil {
		panic(err)
	}
	first, err := eng.Query(repro.Min(2), 2, repro.ShardOptions{Workers: 1})
	if err != nil {
		panic(err)
	}
	second, err := eng.Query(repro.Min(2), 2, repro.ShardOptions{Workers: 1})
	if err != nil {
		panic(err)
	}
	fmt.Printf("top-2 under min: object %d (%.2g), object %d (%.2g)\n",
		first.Items[0].Object, float64(first.Items[0].Grade),
		first.Items[1].Object, float64(first.Items[1].Grade))
	fmt.Printf("repeat query cheaper through the shared cache: %v\n",
		second.Stats.Charged() < first.Stats.Charged())
	// Output:
	// top-2 under min: object 1 (0.8), object 2 (0.7)
	// repeat query cheaper through the shared cache: true
}

// ExampleQuerySharded runs queries on a reusable engine under the same
// Options rules Query applies; the engine fixes the shard count and the
// access stack, so a per-query Cache is rejected.
func ExampleQuerySharded() {
	eng, err := repro.NewSharded(exampleDB(), 2)
	if err != nil {
		panic(err)
	}
	res, err := repro.QuerySharded(eng, repro.Min(2), 2, repro.Options{NoRandomAccess: true})
	if err != nil {
		panic(err)
	}
	fmt.Printf("top-2 under min: objects %d and %d, %d random accesses\n",
		res.Items[0].Object, res.Items[1].Object, res.Stats.Random)
	_, err = repro.QuerySharded(eng, repro.Min(2), 2, repro.Options{Cache: &repro.CacheSpec{}})
	fmt.Println("per-query cache rejected:", errors.Is(err, repro.ErrBadQuery))
	// Output:
	// top-2 under min: objects 1 and 2, 0 random accesses
	// per-query cache rejected: true
}

// ExampleBatchQuery runs a batch of queries over one shared physical scan
// per list: per-query results and accounting are identical to independent
// runs, while the database sees each list scanned once.
func ExampleBatchQuery() {
	db := exampleDB()
	specs := []repro.QuerySpec{
		{Agg: repro.Min(2), K: 1},
		{Agg: repro.Avg(2), K: 1},
	}
	br := repro.BatchQuery(db, specs, 2)
	for i, oc := range br.Outcomes {
		if oc.Err != nil {
			panic(oc.Err)
		}
		fmt.Printf("query %d: object %d (%.2g)\n",
			i, oc.Result.Items[0].Object, float64(oc.Result.Items[0].Grade))
	}
	// Output:
	// query 0: object 1 (0.8)
	// query 1: object 1 (0.85)
}

// ExampleQuery_costAwareTA asks for exact top-k grades at CA's exchange
// rate: with random access declared 8× the price of sorted, cost-aware TA
// spends one resolution phase every h = 8 sorted rounds instead of
// resolving every encountered object, and still reports exact grades.
func ExampleQuery_costAwareTA() {
	db := exampleDB()
	res, err := repro.Query(db, repro.Min(2), 1, repro.Options{
		CostAwareTA: true,
		Costs:       repro.CostModel{CS: 1, CR: 8},
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("top-1: object %d, grade %.2g, exact: %v\n",
		res.Items[0].Object, float64(res.Items[0].Grade), res.GradesExact)
	// Output:
	// top-1: object 1, grade 0.8, exact: true
}
