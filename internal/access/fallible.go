// The failure contract of Source's accessors: a context bound with
// BindContext is honored at access granularity, transient backend failures
// are retried per the Retry policy, and whatever the policy cannot absorb
// surfaces as an error wrapping ErrBackend.
package access

import (
	"context"
	"errors"
	"time"
)

// BindContext attaches ctx to the source for the current query: every
// subsequent access checks it before touching a backend, and retry
// backoff sleeps abort when it fires. Contexts that can never be cancelled
// are not bound, keeping the fault-free hot path free of per-access checks.
// Reset drops the binding.
func (s *Source) BindContext(ctx context.Context) {
	if ctx != nil && ctx.Done() != nil {
		s.ctx = ctx
	} else {
		s.ctx = nil
	}
}

// SetRetry installs the per-query retry policy (zero value: no retries —
// resolve defaults with Retry.Resolve before calling) and re-arms its
// budget.
func (s *Source) SetRetry(r Retry) {
	s.retry = r.normalized()
	s.retryLeft = s.retry.Budget
}

// ctxErr returns the bound context's error, if a cancellable context is
// bound and it has fired.
func (s *Source) ctxErr() error {
	if s.ctx == nil {
		return nil
	}
	return s.ctx.Err()
}

// noteFault accounts one failed access attempt and applies the retry
// policy: a nil return means "retry now" (after the backoff sleep);
// anything else is the error to give up with. Permanent failures
// (ErrListDown), context errors and non-backend errors are never retried.
func (s *Source) noteFault(err error, attempt int) error {
	s.stats.Faults++
	if !errors.Is(err, ErrBackend) || errors.Is(err, ErrListDown) {
		return err
	}
	if attempt >= s.retry.MaxAttempts || s.retryLeft <= 0 {
		return err
	}
	s.retryLeft--
	s.stats.Retries++
	s.retrySeq++
	d := s.retry.backoff(attempt, s.retrySeq)
	if d <= 0 {
		return nil
	}
	if s.ctx == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	select {
	case <-s.ctx.Done():
		t.Stop()
		return s.ctx.Err()
	case <-t.C:
		return nil
	}
}
