package main

import (
	"sync/atomic"
	"time"

	"repro/internal/access"
	"repro/internal/model"
)

// Timing shims. Each shim wraps one layer of the access stack and times
// every access method call into it, accumulating per (shard, layer). A shim
// embeds the layer it wraps, so it has exactly the wrapped layer's method
// set: every optional interface the layer implements (BatchList,
// CostedList, Backend, the Fallible* family, Fallible()) the shim
// implements too, and no other. That matters because the layer above
// chooses its access path by interface assertion — a shim that dropped
// AtN would silently switch the stack to per-entry reads, and one that
// added it would do the reverse. TestShimMethodSets pins the method sets.

// epoch is the origin of the shims' clock.
var epoch = time.Now()

// now reads the monotonic clock as nanoseconds since epoch.
func now() int64 { return int64(time.Since(epoch)) }

// layer indexes the stack layers a shim can wrap, bottom to top.
type layer int

const (
	layerModel layer = iota
	layerRemote
	layerFaulty
	layerCache
	numLayers
)

var layerNames = [numLayers]string{"model", "remote", "faulty", "cache"}

// layerAcc accumulates one (shard, layer) pair's calls between harvests.
// Shard workers call into it concurrently; harvest runs between requests,
// when no query is in flight.
type layerAcc struct {
	busy, calls, entries atomic.Int64
	first, last          atomic.Int64 // call window, ns since epoch; first 0 = none yet
}

// layerSnap is a harvested layerAcc.
type layerSnap struct {
	busy, calls, entries int64
	first, last          int64
}

func (a *layerAcc) add(t0, t1 int64, entries int) {
	a.busy.Add(t1 - t0)
	a.calls.Add(1)
	a.entries.Add(int64(entries))
	if a.first.Load() == 0 {
		a.first.CompareAndSwap(0, t0)
	}
	for {
		l := a.last.Load()
		if t1 <= l || a.last.CompareAndSwap(l, t1) {
			return
		}
	}
}

// harvest returns the accumulated counts and resets them.
func (a *layerAcc) harvest() layerSnap {
	return layerSnap{
		busy: a.busy.Swap(0), calls: a.calls.Swap(0), entries: a.entries.Swap(0),
		first: a.first.Swap(0), last: a.last.Swap(0),
	}
}

// modelShim times a model list: the column reads at the bottom of every
// stack.
type modelShim struct {
	*model.List
	acc *layerAcc
}

func (s *modelShim) At(pos int) model.Entry {
	t0 := now()
	e := s.List.At(pos)
	s.acc.add(t0, now(), 1)
	return e
}

func (s *modelShim) AtN(pos int, dst []model.Entry) int {
	t0 := now()
	n := s.List.AtN(pos, dst)
	s.acc.add(t0, now(), n)
	return n
}

func (s *modelShim) GradeOf(obj model.ObjectID) (model.Grade, bool) {
	t0 := now()
	g, ok := s.List.GradeOf(obj)
	s.acc.add(t0, now(), 1)
	return g, ok
}

// remoteShim times an access.Remote backend.
type remoteShim struct {
	*access.Remote
	acc *layerAcc
}

func (s *remoteShim) At(pos int) model.Entry {
	t0 := now()
	e := s.Remote.At(pos)
	s.acc.add(t0, now(), 1)
	return e
}

func (s *remoteShim) AtN(pos int, dst []model.Entry) int {
	t0 := now()
	n := s.Remote.AtN(pos, dst)
	s.acc.add(t0, now(), n)
	return n
}

func (s *remoteShim) GradeOf(obj model.ObjectID) (model.Grade, bool) {
	t0 := now()
	g, ok := s.Remote.GradeOf(obj)
	s.acc.add(t0, now(), 1)
	return g, ok
}

func (s *remoteShim) AtErr(pos int) (model.Entry, error) {
	t0 := now()
	e, err := s.Remote.AtErr(pos)
	s.acc.add(t0, now(), 1)
	return e, err
}

func (s *remoteShim) AtNErr(pos int, dst []model.Entry) (int, error) {
	t0 := now()
	n, err := s.Remote.AtNErr(pos, dst)
	s.acc.add(t0, now(), n)
	return n, err
}

func (s *remoteShim) GradeOfErr(obj model.ObjectID) (model.Grade, bool, error) {
	t0 := now()
	g, ok, err := s.Remote.GradeOfErr(obj)
	s.acc.add(t0, now(), 1)
	return g, ok, err
}

// faultyShim times an access.Faulty injector.
type faultyShim struct {
	*access.Faulty
	acc *layerAcc
}

func (s *faultyShim) At(pos int) model.Entry {
	t0 := now()
	e := s.Faulty.At(pos)
	s.acc.add(t0, now(), 1)
	return e
}

func (s *faultyShim) AtN(pos int, dst []model.Entry) int {
	t0 := now()
	n := s.Faulty.AtN(pos, dst)
	s.acc.add(t0, now(), n)
	return n
}

func (s *faultyShim) GradeOf(obj model.ObjectID) (model.Grade, bool) {
	t0 := now()
	g, ok := s.Faulty.GradeOf(obj)
	s.acc.add(t0, now(), 1)
	return g, ok
}

func (s *faultyShim) AtErr(pos int) (model.Entry, error) {
	t0 := now()
	e, err := s.Faulty.AtErr(pos)
	s.acc.add(t0, now(), 1)
	return e, err
}

func (s *faultyShim) AtNErr(pos int, dst []model.Entry) (int, error) {
	t0 := now()
	n, err := s.Faulty.AtNErr(pos, dst)
	s.acc.add(t0, now(), n)
	return n, err
}

func (s *faultyShim) GradeOfErr(obj model.ObjectID) (model.Grade, bool, error) {
	t0 := now()
	g, ok, err := s.Faulty.GradeOfErr(obj)
	s.acc.add(t0, now(), 1)
	return g, ok, err
}

func (s *faultyShim) AtCostErr(pos int) (model.Entry, float64, error) {
	t0 := now()
	e, c, err := s.Faulty.AtCostErr(pos)
	s.acc.add(t0, now(), 1)
	return e, c, err
}

func (s *faultyShim) AtCostNErr(pos int, dst []model.Entry, costs []float64) (int, error) {
	t0 := now()
	n, err := s.Faulty.AtCostNErr(pos, dst, costs)
	s.acc.add(t0, now(), n)
	return n, err
}

func (s *faultyShim) GradeOfCostErr(obj model.ObjectID) (model.Grade, bool, float64, error) {
	t0 := now()
	g, ok, c, err := s.Faulty.GradeOfCostErr(obj)
	s.acc.add(t0, now(), 1)
	return g, ok, c, err
}

// cachedView is the method set of the list view access.Cache.Wrap returns
// (an unexported type, so the shim embeds it through this interface).
type cachedView interface {
	access.CostedBatchList
	access.Backend
	access.FallibleCostedBatchList
	access.FallibleBatchList
	Fallible() bool
}

// cacheShim times a cached list view: hits, cold-tier promotions, admission
// and the single-flight lock held across misses.
type cacheShim struct {
	cachedView
	acc *layerAcc
}

func (s *cacheShim) At(pos int) model.Entry {
	t0 := now()
	e := s.cachedView.At(pos)
	s.acc.add(t0, now(), 1)
	return e
}

func (s *cacheShim) GradeOf(obj model.ObjectID) (model.Grade, bool) {
	t0 := now()
	g, ok := s.cachedView.GradeOf(obj)
	s.acc.add(t0, now(), 1)
	return g, ok
}

func (s *cacheShim) AtCost(pos int) (model.Entry, float64) {
	t0 := now()
	e, c := s.cachedView.AtCost(pos)
	s.acc.add(t0, now(), 1)
	return e, c
}

func (s *cacheShim) AtCostN(pos int, dst []model.Entry, costs []float64) int {
	t0 := now()
	n := s.cachedView.AtCostN(pos, dst, costs)
	s.acc.add(t0, now(), n)
	return n
}

func (s *cacheShim) GradeOfCost(obj model.ObjectID) (model.Grade, bool, float64) {
	t0 := now()
	g, ok, c := s.cachedView.GradeOfCost(obj)
	s.acc.add(t0, now(), 1)
	return g, ok, c
}

func (s *cacheShim) AtErr(pos int) (model.Entry, error) {
	t0 := now()
	e, err := s.cachedView.AtErr(pos)
	s.acc.add(t0, now(), 1)
	return e, err
}

func (s *cacheShim) AtNErr(pos int, dst []model.Entry) (int, error) {
	t0 := now()
	n, err := s.cachedView.AtNErr(pos, dst)
	s.acc.add(t0, now(), n)
	return n, err
}

func (s *cacheShim) GradeOfErr(obj model.ObjectID) (model.Grade, bool, error) {
	t0 := now()
	g, ok, err := s.cachedView.GradeOfErr(obj)
	s.acc.add(t0, now(), 1)
	return g, ok, err
}

func (s *cacheShim) AtCostErr(pos int) (model.Entry, float64, error) {
	t0 := now()
	e, c, err := s.cachedView.AtCostErr(pos)
	s.acc.add(t0, now(), 1)
	return e, c, err
}

func (s *cacheShim) AtCostNErr(pos int, dst []model.Entry, costs []float64) (int, error) {
	t0 := now()
	n, err := s.cachedView.AtCostNErr(pos, dst, costs)
	s.acc.add(t0, now(), n)
	return n, err
}

func (s *cacheShim) GradeOfCostErr(obj model.ObjectID) (model.Grade, bool, float64, error) {
	t0 := now()
	g, ok, c, err := s.cachedView.GradeOfCostErr(obj)
	s.acc.add(t0, now(), 1)
	return g, ok, c, err
}

// clockCost is the shims' own overhead, measured on this host: read is one
// clock read, call is the whole instrumentation of one call (two reads and
// the accumulator update). A layer's measured busy time includes about one
// read per own call, and its parent's includes call − read per child call
// on top of the child's busy time; self times subtract both.
type clockCost struct{ read, call float64 }

func calibrate() clockCost {
	const n = 200000
	best := clockCost{read: 1e9, call: 1e9}
	var acc layerAcc
	for trial := 0; trial < 5; trial++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			_ = now()
		}
		read := float64(time.Since(t0)) / n
		t1 := time.Now()
		for i := 0; i < n; i++ {
			a := now()
			acc.add(a, now(), 1)
		}
		call := float64(time.Since(t1)) / n
		best.read = min(best.read, read)
		best.call = min(best.call, call)
	}
	return best
}
