#!/bin/sh
# Print the count of non-test Go lines: every tracked .go file except
# _test.go files and those under perfbench/ (its own module) or a testdata/
# directory. ROADMAP.md and CHANGES.md quote this figure. CI prints it; it
# gates nothing.
set -eu
cd "$(dirname "$0")/.."
git ls-files '*.go' | grep -v -e '_test\.go$' -e '^perfbench/' -e 'testdata/' | xargs cat | wc -l | tr -d ' '
