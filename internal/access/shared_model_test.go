package access

import (
	"math/rand"
	"testing"

	"repro/internal/model"
)

// windowModel is the per-entry reference for one list of a SharedScan's
// accounting. base is the window's low edge: the minimum next read over
// live consumers, clamped to fill, and it never moves back, so a consumer
// attached below it re-fetches instead of pinning the window there. fill is
// the first position not yet pulled into the window, fetched counts every
// physical read (window fills plus below-window re-fetches), and peak is
// the largest fill − base any extension produced.
type windowModel struct {
	base, fill, peak int
	fetched          int64
}

// modelConsumer is one attached Source with its model state: next[i] is
// the next read the window tracks on list i (it only moves forward) and
// pos[i] the Source's own cursor.
type modelConsumer struct {
	src     *Source
	release func()
	live    bool
	next    []int
	pos     []int
}

// slide moves list i's base up to the slowest live consumer, never back.
func slide(w *windowModel, cs []*modelConsumer, i int) {
	low := w.fill
	for _, c := range cs {
		if c.live && c.next[i] < low {
			low = c.next[i]
		}
	}
	w.base = max(w.base, low)
}

// read applies one sorted access of consumer c at position pos of list i.
func (w *windowModel) read(cs []*modelConsumer, c *modelConsumer, i, pos int) {
	if pos < w.base {
		w.fetched++ // the window slid past pos: a re-fetch
	} else {
		if pos >= w.fill {
			w.fetched += int64(pos + 1 - w.fill)
			w.fill = pos + 1
		}
		w.peak = max(w.peak, w.fill-w.base)
	}
	c.next[i] = max(c.next[i], pos+1)
	slide(w, cs, i)
}

// TestSharedScanMatchesWindowModel runs random sequential schedules of
// attach, release (sometimes repeated), SortedNextN of 1–5 entries on a
// live consumer and Random on any consumer, released or not, over 1–3
// short lists, and after every step checks the executor's Stats, PeakWindow
// and window capacity against windowModel. Every entry and grade a
// consumer sees must be the plain list's.
func TestSharedScanMatchesWindowModel(t *testing.T) {
	schedules, steps := 300, 400
	if testing.Short() {
		schedules = 50
	}
	rng := rand.New(rand.NewSource(25))
	dbs := map[[2]int]*model.Database{}
	buf := make([]model.Entry, 5)
	for s := 0; s < schedules; s++ {
		m, n := 1+rng.Intn(3), 20+rng.Intn(100)
		key := [2]int{n, m}
		if dbs[key] == nil {
			dbs[key] = sharedScanDB(t, n, m)
		}
		db := dbs[key]
		ss := NewSharedScan(sharedLists(db))
		ws := make([]windowModel, m)
		var random int64
		var cs []*modelConsumer
		live := func() []*modelConsumer {
			var out []*modelConsumer
			for _, c := range cs {
				if c.live {
					out = append(out, c)
				}
			}
			return out
		}
		for step := 0; step < steps; step++ {
			var what string
			switch r := rng.Intn(100); {
			case r < 10 || len(cs) == 0:
				what = "attach"
				c := &modelConsumer{live: true, next: make([]int, m), pos: make([]int, m)}
				c.src, c.release = ss.Attach(AllowAll)
				cs = append(cs, c)
			case r < 18:
				c := cs[rng.Intn(len(cs))]
				what = "release" // sometimes a repeat: release is idempotent
				c.release()
				c.live = false
				for i := range ws {
					slide(&ws[i], cs, i)
				}
			case r < 75:
				lc := live()
				if len(lc) == 0 {
					continue
				}
				c, i, want := lc[rng.Intn(len(lc))], rng.Intn(m), 1+rng.Intn(5)
				what = "sorted"
				got, err := c.src.SortedNextN(i, buf[:want])
				if err != nil {
					t.Fatalf("schedule %d step %d: SortedNextN: %v", s, step, err)
				}
				if exp := min(want, n-c.pos[i]); got != exp {
					t.Fatalf("schedule %d step %d: SortedNextN(%d, %d) at %d read %d entries, want %d", s, step, i, want, c.pos[i], got, exp)
				}
				for j := 0; j < got; j++ {
					pos := c.pos[i] + j
					if e := db.List(i).At(pos); buf[j] != e {
						t.Fatalf("schedule %d step %d: list %d position %d = %v, want %v", s, step, i, pos, buf[j], e)
					}
					ws[i].read(cs, c, i, pos)
				}
				c.pos[i] += got
			default:
				c, i := cs[rng.Intn(len(cs))], rng.Intn(m)
				what = "random"
				obj := db.List(rng.Intn(m)).At(rng.Intn(n)).Object
				g, ok, err := c.src.Random(i, obj)
				if want, _ := db.List(i).GradeOf(obj); err != nil || !ok || g != want {
					t.Fatalf("schedule %d step %d: Random(%d, %d) = (%v, %v, %v), want %v", s, step, i, obj, g, ok, err, want)
				}
				random++
			}

			st := ss.Stats()
			var sorted int64
			maxBuffered, peak := 0, 0
			for i := range ws {
				w := &ws[i]
				if st.PerList[i] != w.fetched {
					t.Fatalf("schedule %d step %d (%s): list %d fetched %d, model %d", s, step, what, i, st.PerList[i], w.fetched)
				}
				if c := cap(ss.shared[i].buf); c > 2*w.peak+1 {
					t.Fatalf("schedule %d step %d (%s): list %d capacity %d exceeds 2 × peak %d + 1", s, step, what, i, c, w.peak)
				}
				sorted += w.fetched
				maxBuffered += w.peak
				peak = max(peak, w.peak)
			}
			if st.Sorted != sorted || st.Random != random || st.MaxBuffered != maxBuffered {
				t.Fatalf("schedule %d step %d (%s): Stats sorted/random/max-buffered %d/%d/%d, model %d/%d/%d",
					s, step, what, st.Sorted, st.Random, st.MaxBuffered, sorted, random, maxBuffered)
			}
			if got := ss.PeakWindow(); got != peak {
				t.Fatalf("schedule %d step %d (%s): PeakWindow %d, model %d", s, step, what, got, peak)
			}
		}
		for _, c := range cs {
			c.release()
		}
	}
}
