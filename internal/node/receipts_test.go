package node

import (
	"testing"

	"contractstm/internal/api"
	"contractstm/internal/chain"
	"contractstm/internal/engine"
	"contractstm/internal/miner"
	"contractstm/internal/runtime"
	"contractstm/internal/types"
	"contractstm/internal/workload"
)

// TestRecordDurableReceiptAllocCeiling fails when the verdict's receipt
// path — indexing a durable 500-transaction block's receipts and
// publishing its event — allocates per transaction again. The store is
// full, so every block's IDs evict an older block's.
func TestRecordDurableReceiptAllocCeiling(t *testing.T) {
	const size, ceiling = 500, 16
	p := workload.Params{Kind: workload.KindToken, Transactions: size, ConflictPercent: 15, Seed: 50}
	wl, err := workload.Generate(p)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	res, err := miner.Mine(engine.MustNew(engine.KindOCC), runtime.NewSimRunner(), wl.World,
		chain.GenesisHeader(types.HashString("g")), wl.Calls, engine.Options{Workers: 3})
	if err != nil {
		t.Fatalf("mine: %v", err)
	}
	n := newTestNode(t, wl.World)
	// Distinct IDs per block, so the index takes in 500 new entries and
	// drops 500 old ones each time; the sets cycle through more blocks
	// than the store holds.
	const sets = 2*api.DefaultReceiptCapacity/size + 2
	ids := make([][]types.Hash, sets)
	for k := range ids {
		ids[k] = append([]types.Hash(nil), res.TxIDs...)
		for i := range ids[k] {
			ids[k][i][0] ^= byte(k + 1)
		}
	}
	k := 0
	record := func() {
		n.recordDurable(&inflightEntry{block: res.Block, txIDs: ids[k%sets]})
		k++
	}
	for i := 0; i < sets; i++ {
		record()
	}
	if got := n.receipts.Len(); got != api.DefaultReceiptCapacity {
		t.Fatalf("store holds %d entries, want it full at %d", got, api.DefaultReceiptCapacity)
	}
	allocs := testing.AllocsPerRun(100, record)
	t.Logf("%.0f allocs per durable %d-transaction block, ceiling %d", allocs, size, ceiling)
	if allocs > ceiling {
		t.Errorf("recording a durable %d-transaction block allocates %.0f times, ceiling %d", size, allocs, ceiling)
	}
}
