package main

import (
	"sort"
	"time"
)

// The executors' admission rules, replayed in virtual time over measured
// service times. repro.ReplayTrace serves requests back to back and queues
// them in virtual time, so one replay's per-request service times give the
// sojourn at any arrival rate: scale the trace's arrival offsets and run
// the admission rule again.
//
// Sharded workloads queue over one virtual server, not ReplayTrace's
// Workers servers: each request's service was measured with every worker
// busy on it, so a second virtual server would count those cores twice.
// The shared-scan workload admits requests batch at a time: a batch starts
// once its last request has arrived and the scan is free.

// queueRun is the outcome of one admission-rule replay.
type queueRun struct {
	sojourn []time.Duration // queue + service, per request
	fill    []time.Duration // wait for the request's batch to fill
	// backlog is the work left when the last request arrives: a queue
	// that keeps growing shows up here even when the p99 sojourn does not
	// yet exceed the limit.
	backlog time.Duration
}

// simulate replays the admission rule with arrivals at offsets at (sorted)
// and the measured service times. batch is the shared-scan batch size, 0
// for the single-server sharded executor.
func simulate(at, service []time.Duration, batch int) queueRun {
	n := len(at)
	q := queueRun{sojourn: make([]time.Duration, n), fill: make([]time.Duration, n)}
	var free time.Duration
	if batch == 0 {
		for i := range at {
			start := at[i]
			if free > start {
				start = free
			}
			free = start + service[i]
			q.sojourn[i] = free - at[i]
		}
	} else {
		for lo := 0; lo < n; lo += batch {
			hi := lo + batch
			if hi > n {
				hi = n
			}
			var work time.Duration
			for i := lo; i < hi; i++ {
				work += service[i]
			}
			start := at[hi-1]
			if free > start {
				start = free
			}
			free = start + work
			for i := lo; i < hi; i++ {
				q.fill[i] = at[hi-1] - at[i]
				q.sojourn[i] = start - at[i] + service[i]
			}
		}
	}
	if last := at[n-1]; free > last {
		q.backlog = free - last
	}
	return q
}

// scaled returns the arrival offsets time-scaled from the offered rate to
// rate.
func scaled(at []time.Duration, offered, rate float64) []time.Duration {
	f := offered / rate
	out := make([]time.Duration, len(at))
	for i, a := range at {
		out[i] = time.Duration(float64(a) * f)
	}
	return out
}

// feasible reports whether the executor meets the latency limit at rate:
// sojourn p99 within limit and no growing backlog.
func feasible(at, service []time.Duration, batch int, offered, rate float64, limit time.Duration) bool {
	q := simulate(scaled(at, offered, rate), service, batch)
	return quantile(q.sojourn, 0.99) <= limit && q.backlog <= limit
}

// capacity is the highest arrival rate, as a time-scaling of the trace's
// own arrivals, at which the executor meets the latency limit. The search
// starts at the saturation rate (work arriving exactly as fast as it is
// served) and steps down, because on the shared-scan executor sojourn is
// not monotone in rate: the batch-fill wait falls as the rate rises. The
// first feasible step is then refined by bisection.
func capacity(at, service []time.Duration, batch int, offered float64, limit time.Duration) float64 {
	var work time.Duration
	for _, s := range service {
		work += s
	}
	span := at[len(at)-1] - at[0]
	if work <= 0 || span <= 0 {
		return 0
	}
	const step = 0.99
	rate := offered * float64(span) / float64(work)
	for i := 0; !feasible(at, service, batch, offered, rate, limit); i++ {
		if i == 2000 {
			return 0
		}
		rate *= step
	}
	lo, hi := rate, rate/step
	for i := 0; i < 30; i++ {
		mid := (lo + hi) / 2
		if feasible(at, service, batch, offered, mid, limit) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// quantile is the nearest-rank q-quantile (repro.ReplayReport's rule).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median is the median of xs (mean of the middle pair for even counts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
