package lint_test

import (
	"strings"
	"testing"

	"sgprs/internal/lint"
)

// The five analyzer fixtures. Each carries positive `// want` expectations,
// so these tests are anti-vacuous by construction: weaken or delete an
// analyzer's check and its unmatched wants fail the test.

func TestMapOrder(t *testing.T)     { runFixture(t, "testdata", "gpu", lint.MapOrder) }
func TestRNGPurity(t *testing.T)    { runFixture(t, "testdata", "des", lint.RNGPurity) }
func TestGoroutineBan(t *testing.T) { runFixture(t, "testdata", "core", lint.GoroutineBan) }
func TestFloatFold(t *testing.T)    { runFixture(t, "testdata", "sim", lint.FloatFold) }
func TestTagSwitch(t *testing.T)    { runFixture(t, "testdata", "workload", lint.TagSwitch) }

// TestScopedRulesIgnoreNonSimPackages is the clean-file negative for every
// package-scoped rule: the "outside" fixture commits all four sins in a
// package the discipline does not bind, and nothing is reported.
func TestScopedRulesIgnoreNonSimPackages(t *testing.T) {
	diags := fixtureDiagnostics(t, "testdata", "outside",
		lint.MapOrder, lint.RNGPurity, lint.GoroutineBan, lint.FloatFold)
	for _, d := range diags {
		t.Errorf("unexpected diagnostic outside the simulation packages: %s", d)
	}
}

// TestAllowSuppresses proves the escape hatch: annotated violations are
// silent and the annotations count as used.
func TestAllowSuppresses(t *testing.T) {
	diags := fixtureDiagnostics(t, "testdata", "metrics", lint.All()...)
	for _, d := range diags {
		t.Errorf("allowed violation still reported: %s", d)
	}
}

// TestUnusedAllowFails proves the hatch is load-bearing: an allow that
// suppresses nothing is a finding of its own, so stale exemptions cannot
// survive the code they excused.
func TestUnusedAllowFails(t *testing.T) {
	diags := fixtureDiagnostics(t, "testdata", "naive", lint.All()...)
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want exactly the unused allow: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != "allow" || !strings.Contains(d.Message, "unused //sgprs:allow maporder") {
		t.Fatalf("unexpected diagnostic for a stale allow: %s", d)
	}
}

// TestMalformedAllowsFail: an allow must name a real analyzer and carry a
// reason; a malformed one suppresses nothing, so the underlying violation
// surfaces too.
func TestMalformedAllowsFail(t *testing.T) {
	diags := fixtureDiagnostics(t, "testdata", "fault", lint.All()...)
	var unknown, noReason, violations int
	for _, d := range diags {
		switch {
		case strings.Contains(d.Message, "unknown analyzer"):
			unknown++
		case strings.Contains(d.Message, "has no reason"):
			noReason++
		case d.Analyzer == "maporder":
			violations++
		default:
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	if unknown != 1 || noReason != 1 || violations != 2 {
		t.Fatalf("got unknown=%d noReason=%d violations=%d, want 1/1/2: %v",
			unknown, noReason, violations, diags)
	}
}

// TestTreeIsClean is the acceptance gate in test form: the committed tree
// lints clean under the full suite, with every deliberate violation
// annotated in place. This is what `sgprs-lint ./...` asserts in CI, pulled
// into `go test` so a violation cannot land even where CI is not running.
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := lint.Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Run(pkgs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
