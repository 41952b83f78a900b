package poolpair_test

import (
	"testing"

	"contractstm/internal/analysis/analysistest"
	"contractstm/internal/analysis/passes/poolpair"
)

func TestPoolpair(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), poolpair.Analyzer, "codec")
}

// TestPoolpairContract covers the contract package's pooled execution
// environment.
func TestPoolpairContract(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), poolpair.Analyzer, "contract")
}
