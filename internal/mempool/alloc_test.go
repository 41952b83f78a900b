package mempool

import (
	"testing"

	"contractstm/internal/contract"
)

// TestAdmitAllocCeiling fails when one pass through the admission
// pipeline (TxID hash, dedup probe, per-sender state, shard insert)
// starts to allocate more. Every call comes from a new sender with
// permissive limits, so each run takes the full path to an admitted
// verdict and none short-circuits. The call's encoding is hashed from a
// stack buffer; the three allocations are the entry, the sender's state
// and its entry list.
func TestAdmitAllocCeiling(t *testing.T) {
	const runs = 2000
	calls := make([]contract.Call, runs+1) // AllocsPerRun warms up once
	for i := range calls {
		calls[i] = testCall(uint64(i), uint64(i))
	}
	pool := New(Config{})
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if d := pool.Admit(calls[next], 0); d.Verdict != VerdictAdmitted {
			t.Fatalf("call %d: verdict %v", next, d.Verdict)
		}
		next++
	})
	t.Logf("%.0f allocs per call, ceiling 3", allocs)
	if allocs > 3 {
		t.Errorf("Admit allocates %.0f times per call, ceiling 3", allocs)
	}
}
