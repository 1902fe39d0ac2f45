package repro

import (
	"repro/internal/instopt"
)

// ProofReport summarizes the certificate check of a proved query: whether
// the run's observed accesses prove its answer is a (θ-approximate) top-k
// in every database consistent with those observations — the paper's
// Section 5 "shortest proof" reading of instance optimality.
type ProofReport struct {
	// Valid reports whether the certificate holds.
	Valid bool
	// Reason explains the first violation when Valid is false.
	Reason string
	// AnswerFloor is θ · (the smallest proven lower bound over the
	// answer); Ceiling is the largest possible grade of any object
	// outside the answer. Valid means AnswerFloor ≥ Ceiling.
	AnswerFloor float64
	Ceiling     float64
	// Trace is the compact rendering of the access sequence.
	Trace string
}

// ProvedQuery runs a query like Query on the sequential path (Shards is
// ignored: a proof reads one access trace), records that trace, and
// verifies the final state as a proof of the answer. Every algorithm
// in this library halts only once its observations certify its output, so
// Valid is expected to be true; a false report indicates a bug (and is
// how the test suite would catch one).
//
// Set distinct to assert the database satisfies the distinctness property
// (each list's grades pairwise distinct), which tightens the certificate's
// upper bounds the way Theorems 6.5/8.9 exploit.
func ProvedQuery(db *Database, t AggFunc, k int, opts Options, distinct bool) (*Result, *ProofReport, error) {
	opts.Shards = 0
	pl, err := resolveQuery(target{db: db}, t, k, opts)
	if err != nil {
		return nil, nil, err
	}
	src := pl.source(db, opts)
	trace := src.StartTrace()
	res, err := pl.algo.Run(src, t, k)
	if err != nil {
		return nil, nil, err
	}
	rep, err := instopt.Verify(trace, t, db.N(), res.Objects(), instopt.Options{
		Theta:    opts.Theta,
		Distinct: distinct,
	})
	if err != nil {
		return nil, nil, err
	}
	return res, &ProofReport{
		Valid:       rep.Valid,
		Reason:      rep.Reason,
		AnswerFloor: rep.AnswerFloor,
		Ceiling:     rep.Ceiling,
		Trace:       trace.String(),
	}, nil
}
