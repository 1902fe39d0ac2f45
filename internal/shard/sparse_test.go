package shard

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/access"
	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/workload"
)

// sparseCopy remaps db's ids by to, which must be strictly increasing, so
// every list keeps its order, ties included.
func sparseCopy(t *testing.T, db *model.Database, to func(model.ObjectID) model.ObjectID) *model.Database {
	t.Helper()
	lists := make([]*model.List, db.M())
	for i := range lists {
		es := db.List(i).Entries()
		for j := range es {
			es[j].Object = to(es[j].Object)
		}
		l, err := model.NewListPresorted(es)
		if err != nil {
			t.Fatal(err)
		}
		lists[i] = l
	}
	out, err := model.NewDatabase(lists)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSparseIDsMatchDense remaps each database's ids by id → 2·id + id mod
// 2 (0, 3, 4, 7, 8, …), strictly increasing but not arithmetic. The
// remapped lists build rank maps and report no id layout, so their bound
// tables file objects in the map, while the originals' tables use the slot
// index. Partition assigns the same round-robin shards and every tie-break
// sees the same id order, so every run must answer identically: items
// (mapped back), [W, B], GradesExact, Rounds and Stats, BoundRecomputes
// and MaxBuffered included, and each shard's Stats and resumes.
func TestSparseIDsMatchDense(t *testing.T) {
	const m, n = 3, 2000
	to := func(obj model.ObjectID) model.ObjectID { return 2*obj + obj%2 }
	back := func(obj model.ObjectID) model.ObjectID { return obj / 2 }
	uniform, err := workload.IndependentUniform(workload.Spec{N: n, M: m, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	zipf, err := workload.Zipf(workload.Spec{N: n, M: m, Seed: 42}, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	plateau, err := workload.Plateau(workload.Spec{N: n, M: m, Seed: 42}, 8)
	if err != nil {
		t.Fatal(err)
	}
	mapBack := func(res *core.Result) *core.Result {
		out := *res
		out.Items = append([]core.Scored(nil), res.Items...)
		for i := range out.Items {
			out.Items[i].Object = back(out.Items[i].Object)
		}
		return &out
	}
	type run func(db *model.Database, tf agg.Func, k int) (*core.Result, []ShardStat, error)
	seq := func(al func() core.Algorithm, pol access.Policy) run {
		return func(db *model.Database, tf agg.Func, k int) (*core.Result, []ShardStat, error) {
			res, err := al().Run(access.New(db, pol), tf, k)
			return res, nil, err
		}
	}
	sharded := func(p int, sched Schedule) run {
		return func(db *model.Database, tf agg.Func, k int) (*core.Result, []ShardStat, error) {
			eng, err := New(db, p)
			if err != nil {
				return nil, nil, err
			}
			var per []ShardStat
			res, err := eng.Query(tf, k, Options{
				NoRandomAccess: true,
				Schedule:       sched,
				Workers:        1,
				OnShardStats:   func(st []ShardStat) { per = st },
			})
			for i := range per {
				per[i].Elapsed = 0
			}
			return res, per, err
		}
	}
	runs := map[string]run{
		"NRA":           seq(func() core.Algorithm { return &core.NRA{} }, access.Policy{NoRandom: true}),
		"CA":            seq(func() core.Algorithm { return &core.CA{H: 2} }, access.AllowAll),
		"Intermittent":  seq(func() core.Algorithm { return &core.Intermittent{H: 2} }, access.AllowAll),
		"cost-aware TA": seq(func() core.Algorithm { return &core.CostAwareTA{} }, access.AllowAll),
	}
	for _, p := range []int{1, 4} {
		for _, sched := range []Schedule{ScheduleWave, ScheduleCostAware} {
			runs[fmt.Sprintf("sharded P=%d %s", p, sched)] = sharded(p, sched)
		}
	}
	for _, d := range []struct {
		name string
		db   *model.Database
	}{{"uniform", uniform}, {"zipf", zipf}, {"plateau", plateau}} {
		sp := sparseCopy(t, d.db, to)
		// The dense side's Sources map ids to slots, the sparse side's
		// to none; so do the engine's per-shard Sources.
		obj := d.db.Objects()[0]
		if _, ok := access.New(d.db, access.AllowAll).Slot(obj); !ok {
			t.Fatalf("%s: dense ids map to no slot", d.name)
		}
		if _, ok := access.New(sp, access.AllowAll).Slot(to(obj)); ok {
			t.Fatalf("%s: sparse ids map to a slot", d.name)
		}
		for _, p := range []int{1, 4} {
			de, err := New(d.db, p)
			if err != nil {
				t.Fatal(err)
			}
			se, err := New(sp, p)
			if err != nil {
				t.Fatal(err)
			}
			for s := range de.shards {
				first := de.shards[s].Objects()[0]
				if _, ok := de.source(s, access.AllowAll).Slot(first); !ok {
					t.Fatalf("%s P=%d: dense shard %d maps its ids to no slot", d.name, p, s)
				}
				if _, ok := se.source(s, access.AllowAll).Slot(to(first)); ok {
					t.Fatalf("%s P=%d: sparse shard %d maps its ids to a slot", d.name, p, s)
				}
			}
		}
		for _, tf := range []agg.Func{agg.Min(m), agg.Avg(m), agg.Sum(m)} {
			for _, k := range []int{5, 20} {
				for name, r := range runs {
					label := fmt.Sprintf("%s %s k=%d %s", d.name, tf.Name(), k, name)
					want, wantPer, err := r(d.db, tf, k)
					if err != nil {
						t.Fatalf("%s: dense: %v", label, err)
					}
					got, gotPer, err := r(sp, tf, k)
					if err != nil {
						t.Fatalf("%s: sparse: %v", label, err)
					}
					if got = mapBack(got); !reflect.DeepEqual(got, want) {
						t.Errorf("%s: sparse ids answer differently\n got %+v\nwant %+v", label, got, want)
					}
					if !reflect.DeepEqual(gotPer, wantPer) {
						t.Errorf("%s: sparse ids shard stats differ\n got %+v\nwant %+v", label, gotPer, wantPer)
					}
				}
			}
		}
	}
}
