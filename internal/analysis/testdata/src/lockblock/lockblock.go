// Fixture for the lockblock analyzer: no blocking operations while holding
// a coordinator or cache mutex.
package lockblock

import (
	"sync"
	"time"
)

// ListSource mirrors the backend access surface.
type ListSource interface {
	At(pos int) int
	GradeOf(obj int64) (float64, bool)
}

// FallibleList mirrors the error-aware half of the access surface.
type FallibleList interface {
	ListSource
	AtErr(pos int) (int, error)
	AtNErr(pos int, dst []int) (int, error)
	AtCostErr(pos int) (int, float64, error)
	AtCostNErr(pos int, dst []int, costs []float64) (int, error)
	GradeOfErr(obj int64) (float64, bool, error)
	GradeOfCostErr(obj int64) (float64, bool, float64, error)
}

type Cache struct {
	mu    sync.Mutex
	src   ListSource
	fsrc  FallibleList
	ch    chan int
	stats int
}

// atErr, fetchIntoErr and gradeOfErr mirror the access package's
// error-aware fetch helpers.
func atErr(l ListSource, pos int) (int, error) { return l.At(pos), nil }

func fetchIntoErr(l ListSource, pos int, dst []int) (int, error) {
	for i := range dst {
		dst[i] = l.At(pos + i)
	}
	return len(dst), nil
}

func gradeOfErr(l ListSource, obj int64) (float64, bool, error) {
	g, ok := l.GradeOf(obj)
	return g, ok, nil
}

// BadFetch holds the mutex across a backend read.
func (c *Cache) BadFetch(pos int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.src.At(pos) // want `backend access c.src.At while holding`
}

// BadProbe holds the mutex across a random probe.
func (c *Cache) BadProbe(obj int64) (float64, bool) {
	c.mu.Lock()
	g, ok := c.src.GradeOf(obj) // want `backend access c.src.GradeOf while holding`
	c.mu.Unlock()
	return g, ok
}

// BadFetchErr holds the mutex across an error-aware backend read.
func (c *Cache) BadFetchErr(pos int) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fsrc.AtErr(pos) // want `backend access c.fsrc.AtErr while holding`
}

// BadErrSurface holds the mutex across every other error-aware access.
func (c *Cache) BadErrSurface(pos int, obj int64, dst []int, costs []float64) {
	c.mu.Lock()
	c.fsrc.AtNErr(pos, dst)            // want `backend access c.fsrc.AtNErr while holding`
	c.fsrc.AtCostErr(pos)              // want `backend access c.fsrc.AtCostErr while holding`
	c.fsrc.AtCostNErr(pos, dst, costs) // want `backend access c.fsrc.AtCostNErr while holding`
	c.fsrc.GradeOfErr(obj)             // want `backend access c.fsrc.GradeOfErr while holding`
	c.fsrc.GradeOfCostErr(obj)         // want `backend access c.fsrc.GradeOfCostErr while holding`
	c.mu.Unlock()
}

// BadHelpers holds the mutex across the error-aware fetch helpers; each
// finding names the helper.
func (c *Cache) BadHelpers(pos int, obj int64, dst []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	atErr(c.src, pos)             // want `backend fetch \(atErr\) while holding`
	fetchIntoErr(c.src, pos, dst) // want `backend fetch \(fetchIntoErr\) while holding`
	gradeOfErr(c.src, obj)        // want `backend fetch \(gradeOfErr\) while holding`
}

// BadSleep sleeps inside the critical section.
func (c *Cache) BadSleep() {
	c.mu.Lock()
	time.Sleep(time.Millisecond) // want `time.Sleep while holding`
	c.mu.Unlock()
}

// BadSend blocks on a channel send inside the critical section.
func (c *Cache) BadSend(v int) {
	c.mu.Lock()
	c.ch <- v // want `channel send while holding`
	c.mu.Unlock()
}

// BadNested is flagged inside a branch of the critical section.
func (c *Cache) BadNested(pos int, cond bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cond {
		return c.src.At(pos) // want `backend access c.src.At while holding`
	}
	return 0
}

// GoodUnlockFirst releases before fetching.
func (c *Cache) GoodUnlockFirst(pos int) int {
	c.mu.Lock()
	c.stats++
	c.mu.Unlock()
	return c.src.At(pos)
}

// GoodBranchUnlock releases inside the branch before the fetch.
func (c *Cache) GoodBranchUnlock(pos int, cond bool) int {
	c.mu.Lock()
	if cond {
		c.mu.Unlock()
		return c.src.At(pos)
	}
	c.stats++
	c.mu.Unlock()
	return 0
}

// GoodDeferredWork captures work in a closure that runs after the critical
// section ends: the function literal's body is not part of the section.
func (c *Cache) GoodDeferredWork(pos int) func() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats++
	return func() int { return c.src.At(pos) }
}

// GoodAnnotatedErr documents a deliberate hold across an error-aware
// helper fetch.
func (c *Cache) GoodAnnotatedErr(pos int) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	//lint:lockheld single-flight: concurrent misses must not fetch twice
	return atErr(c.src, pos)
}

// GoodAnnotated documents a deliberate hold-across-fetch.
func (c *Cache) GoodAnnotated(pos int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	//lint:lockheld single-flight: concurrent misses must not fetch twice
	return c.src.At(pos)
}
