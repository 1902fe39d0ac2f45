package shard

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/access"
	"repro/internal/agg"
	"repro/internal/core"
)

// frame is the per-query run loop both engine modes share: one armed
// Source per shard, waves of shard workers on the pool, the query's stop
// flag and lost-shard record, and the Result, θ-degradation and
// OnShardStats report built once at the end. A mode supplies its worker
// and its schedule: the TA mode runs a single wave and never resumes a
// shard; the no-random-access mode steps its cursors wave after wave until
// its scheduler finds no shard to resume. Workers of a wave touch only
// their own shard's entries (and the lost-shard record, under its lock);
// the scheduling goroutine reads them between waves, once the pool joined.
type frame struct {
	e    *Engine
	ctx  context.Context
	t    agg.Func
	opts Options

	srcs    []*access.Source
	ks      []int           // per-shard k: min(k, N_s), since a shard smaller than k contributes all its objects
	elapsed []time.Duration // per-shard wall-clock over every wave it ran in
	turns   []int           // per-shard waves run; each after the first is a resume
	errs    []error         // per-shard error that fails the query
	deg     *degraded

	stopped atomic.Bool // external cancellation or a worker error
}

// newFrame opens each shard's Source under policy, bound to ctx and armed
// with the query's retry policy.
func (e *Engine) newFrame(ctx context.Context, t agg.Func, k int, opts Options, policy access.Policy) *frame {
	p := len(e.shards)
	f := &frame{
		e: e, ctx: ctx, t: t, opts: opts,
		srcs:    make([]*access.Source, p),
		ks:      make([]int, p),
		elapsed: make([]time.Duration, p),
		turns:   make([]int, p),
		errs:    make([]error, p),
		deg:     newDegraded(p),
	}
	retry := opts.Retry.Resolve()
	for s, db := range e.shards {
		f.ks[s] = min(k, db.N())
		f.srcs[s] = e.source(s, policy)
		f.srcs[s].BindContext(ctx)
		f.srcs[s].SetRetry(retry)
	}
	return f
}

// close returns every Source to its shard's pool, for a later query to
// reuse; whatever reads a Source (an NRA cursor's bound table) must be
// released first. Stats taken before are copies and stay valid.
func (f *frame) close() {
	for s, src := range f.srcs {
		f.e.pools[s].Put(src)
	}
}

// cancelled reports whether workers must stop because a worker failed the
// query or ctx expired.
func (f *frame) cancelled() bool {
	if f.ctx.Err() != nil {
		f.stopped.Store(true)
	}
	return f.stopped.Load()
}

// wave runs work(s) for every shard s of batch on at most opts.Workers
// goroutines. A shard whose backend failed past its retry budget is
// recorded lost, with the death ceiling its error certifies, and the query
// goes on over the survivors; any other error stops every worker, and wave
// returns it once the pool joins (ctx's error first).
func (f *frame) wave(batch []int, work func(s int) error) error {
	for _, s := range batch {
		f.turns[s]++
	}
	ForEach(len(batch), f.opts.Workers, func(i int) {
		s := batch[i]
		start := time.Now()
		err := runShard(func() error { return work(s) })
		f.elapsed[s] += time.Since(start)
		if err == nil {
			return
		}
		if f.errs[s] = shardFatal(f.ctx, s, err); f.errs[s] != nil {
			f.stopped.Store(true)
			return
		}
		// Everything the shard did not merge is bounded by t(1,…,1), or by
		// the tighter ceiling a failed TA worker reports; the NRA mode
		// re-evaluates each dead shard's ceiling against its final merge.
		ceil := agg.TopValue(f.t)
		var ae *core.AccessError
		if errors.As(err, &ae) && ae.Ceiling < ceil {
			ceil = ae.Ceiling
		}
		f.deg.mark(s, ceil, err)
	})
	if err := f.ctx.Err(); err != nil {
		return err
	}
	for _, err := range f.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// finish builds the Result from the mode's merged answer. Stats sum every
// shard's accounting plus the coordinator's own buffer; with shards lost
// the answer degrades to the θ its survivors certify over floor, the lower
// bound every answer reaches; OnShardStats then gets each shard's record.
func (f *frame) finish(items []core.Scored, exact bool, rounds, buffered int, floor func() float64) (*core.Result, error) {
	var per []ShardStat
	if f.opts.OnShardStats != nil {
		per = make([]ShardStat, len(f.srcs))
	}
	stats := access.Stats{PerList: make([]int64, f.e.m)}
	for s, src := range f.srcs {
		st := src.Stats()
		addStats(&stats, st)
		if per != nil {
			per[s] = ShardStat{Stats: st, Elapsed: f.elapsed[s], Resumes: max(f.turns[s]-1, 0), Dead: f.deg.dead[s]}
		}
	}
	stats.MaxBuffered += buffered
	res := &core.Result{Items: items, GradesExact: exact, Theta: 1, Rounds: rounds, Stats: stats}
	if f.deg.count > 0 {
		var err error
		if res, err = f.deg.degradeResult(res, f.opts, f.t, floor(), len(f.srcs)); err != nil {
			return nil, err
		}
	}
	if per != nil {
		f.opts.OnShardStats(per)
	}
	return res, nil
}

// addStats folds one worker's accounting into the engine-level sum:
// PerList aligns by attribute index, everything else — access counts,
// charged costs, buffer peaks — adds.
func addStats(dst *access.Stats, src access.Stats) {
	dst.Sorted += src.Sorted
	dst.Random += src.Random
	dst.ChargedSorted += src.ChargedSorted
	dst.ChargedRandom += src.ChargedRandom
	dst.WildGuesses += src.WildGuesses
	dst.BoundRecomputes += src.BoundRecomputes
	dst.MaxBuffered += src.MaxBuffered
	dst.Faults += src.Faults
	dst.Retries += src.Retries
	dst.DeadShards += src.DeadShards
	for i, d := range src.PerList {
		dst.PerList[i] += d
	}
}
