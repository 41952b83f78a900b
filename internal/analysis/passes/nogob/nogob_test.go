package nogob_test

import (
	"testing"

	"contractstm/internal/analysis/analysistest"
	"contractstm/internal/analysis/passes/nogob"
)

// TestNogob: a gob import in a non-test file fires; there is no
// allowlist.
func TestNogob(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), nogob.Analyzer, "chain")
}
