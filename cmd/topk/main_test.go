package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/workload"
)

// TestMain lets the test binary stand in for the topk command: with
// TOPK_RUN_MAIN=1 in its environment it runs main on its own arguments and
// exits, so a test can run the CLI as a subprocess and observe its exit
// status.
func TestMain(m *testing.M) {
	if os.Getenv("TOPK_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runTopK runs the CLI with args and returns its exit status and output.
func runTopK(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TOPK_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	switch {
	case err == nil:
		return 0, string(out)
	case errors.As(err, &ee):
		return ee.ExitCode(), string(out)
	}
	t.Fatalf("topk %s: %v", strings.Join(args, " "), err)
	return -1, ""
}

// TestCachedShardedPathMatchesQuery: with -cache and -shards the CLI runs
// the query on a persistent engine (repro.QuerySharded) so it can report
// per-shard cache statistics. That path must accept and reject exactly the
// flag sets the repro.Query path does, so adding -cache never changes
// whether a query runs; on the TA rows it must also print the same answer
// objects and grades (the sharded TA answer is canonical).
func TestCachedShardedPathMatchesQuery(t *testing.T) {
	db, err := workload.IndependentUniform(workload.Spec{N: 200, M: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "db.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := model.WriteCSV(f, db); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		flags string
		want  int
		ta    bool // compare the printed answers
	}{
		{"-shards 2 -theta 1", 0, true},
		{"-shards 2 -cs 0 -cr 5 -cost-aware-ta", 1, false},
		{"-shards 2 -theta 1.5", 1, false},
		{"-shards 2 -theta NaN", 1, false},
		{"-shards 2 -no-random -cs NaN -cr 1", 1, false},
		{"-shards 2 -algo NRA -schedule cost-aware", 0, false},
		{"-shards 2 -shard-workers -3", 1, false},
		{"-shards 2 -retry-budget -1 -fault-rate 0.1", 1, false},
		{"-shards 3 -algo TA -shard-workers 1", 0, true},
		{"-shards 500", 0, true}, // more shards than objects: clamped to N
	} {
		args := append([]string{"-data", path, "-agg", "avg", "-k", "5"}, strings.Fields(tc.flags)...)
		plain, out := runTopK(t, args...)
		if plain != tc.want {
			t.Errorf("%s: exit %d, want %d\n%s", tc.flags, plain, tc.want, out)
		}
		cached, cachedOut := runTopK(t, append(args, "-cache")...)
		if cached != plain {
			t.Errorf("%s -cache: exit %d, but %d without -cache\n%s", tc.flags, cached, plain, cachedOut)
		}
		if !tc.ta || plain != 0 {
			continue
		}
		got, want := answerLines(cachedOut), answerLines(out)
		if len(want) != 5 || strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s -cache: answers\n%s\nwithout -cache\n%s", tc.flags, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}

// answerLines returns the CLI output's ranked answer lines (rank, object
// and grade).
func answerLines(out string) []string {
	var lines []string
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, ". object ") {
			lines = append(lines, strings.TrimSpace(l))
		}
	}
	return lines
}

// TestGradesOutsideUnitRangeRejected: the paper's algorithms are sound only
// for grades in [0, 1] (TA's initial bottom of 1, NRA's 0-fill), so a CSV
// with any other grade must fail to load rather than run. On this database
// sequential TA under sum would stop at once on object 1 (3.5), while the
// true top object is 2 (3.9).
func TestGradesOutsideUnitRangeRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wide.csv")
	if err := os.WriteFile(path, []byte("object,attr1,attr2\n1,2,1.5\n2,1.9,2\n3,0.1,0.1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out := runTopK(t, "-data", path, "-agg", "sum", "-k", "1")
	if code != 1 || !strings.Contains(out, "object 1 has grade 2, outside [0, 1]") {
		t.Fatalf("exit %d, want 1 with an error naming object 1's grade 2\n%s", code, out)
	}
}
