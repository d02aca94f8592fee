package lint_test

import (
	"os"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// The golden corpora: each package carries at least one clean case and
// one `// want`-annotated violation per analyzer behavior.

func TestDetPureGolden(t *testing.T)    { linttest.Run(t, "testdata/src/detpure") }
func TestHotAllocGolden(t *testing.T)   { linttest.Run(t, "testdata/src/hotalloc") }
func TestAtomicWordGolden(t *testing.T) { linttest.Run(t, "testdata/src/atomicword") }
func TestWireJSONGolden(t *testing.T)   { linttest.Run(t, "testdata/src/wirejson") }

// TestGoldenCorporaFail pins the negative CI smoke's premise: every
// golden corpus actually produces findings, so seeding one into a lint
// run is guaranteed to fail it.
func TestGoldenCorporaFail(t *testing.T) {
	for _, dir := range []string{
		"testdata/src/detpure",
		"testdata/src/hotalloc",
		"testdata/src/atomicword",
		"testdata/src/wirejson",
	} {
		if len(linttest.Findings(t, dir)) == 0 {
			t.Errorf("%s: expected findings, got none", dir)
		}
	}
}

// TestTreeCleanAndSchemaLock is the in-process form of the CI lint job:
// the committed tree must produce zero findings (every suppression
// carries a justification), and the flattened wire schema must match
// the committed lock file exactly.
func TestTreeCleanAndSchemaLock(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole module")
	}
	module, moduleRoot, err := lint.ModuleInfo(".")
	if err != nil {
		t.Fatalf("module info: %v", err)
	}
	loader := lint.NewLoader(lint.DefaultDetPaths(module))
	pkgs, err := loader.LoadPackages(moduleRoot, "./...")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	suite := lint.NewSuite(lint.DefaultDetPaths(module))
	suite.ModulePath = module
	for _, pkg := range pkgs {
		suite.RunPackage(pkg)
	}
	for _, d := range suite.Diagnostics() {
		t.Errorf("finding on committed tree: %s", d)
	}
	lock, err := os.ReadFile("testdata/wire_schema.lock")
	if err != nil {
		t.Fatalf("read schema lock: %v (bootstrap: go run ./cmd/graphite-lint -write-schema-lock ./...)", err)
	}
	if d := suite.Schema.Diff(string(lock)); d != "" {
		t.Errorf("%s", d)
	}
}

// TestSchemaDiffCatchesRemovedField proves the lock comparison is what
// makes a silently dropped wire field (a deleted json tag no longer
// registers its schema line) fail the lint job: a lock line with no
// matching collected line is reported as missing.
func TestSchemaDiffCatchesRemovedField(t *testing.T) {
	s := lint.NewSchema()
	lock := "# header comment\n" +
		"repro/internal/scenario.Record\tschema\tSchema\tstring\n"
	d := s.Diff(lock)
	if d == "" {
		t.Fatal("Diff reported no drift for a lock line absent from the collected schema")
	}
	if !strings.Contains(d, "- repro/internal/scenario.Record schema Schema string") {
		t.Errorf("Diff did not name the missing line:\n%s", d)
	}
}
