package chain_test

import (
	"testing"

	"contractstm/internal/chain"
	"contractstm/internal/engine"
	"contractstm/internal/miner"
	"contractstm/internal/runtime"
	"contractstm/internal/types"
	"contractstm/internal/workload"
)

// TestBlockCodecAllocCeilings fails when encoding or decoding a block —
// the WAL append and every import pay these — starts to allocate more.
// The block is the representative one (see workload.HotPathParams),
// mined by the OCC engine so calls, receipts, schedule and profiles are
// all realistic. UnmarshalBlock's ceiling is 1.1 times its measured
// count, 831 per block both plain and under -race. The commitment
// preimages are built in pooled, reused or stack buffers, so
// ScheduleHashOf allocates nothing, TxLeavesOf allocates
// its result and nothing else, and ReceiptRootOf the one level its tree
// is reduced in, whatever the block's size.
func TestBlockCodecAllocCeilings(t *testing.T) {
	wl, err := workload.Generate(workload.HotPathParams)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	res, err := miner.Mine(engine.MustNew(engine.KindOCC), runtime.NewSimRunner(), wl.World,
		chain.GenesisHeader(types.HashString("g")), wl.Calls, engine.Options{Workers: 3})
	if err != nil {
		t.Fatalf("mine: %v", err)
	}
	wireBytes, err := chain.AppendBlockWire(nil, res.Block)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}

	// Appending into a buffer that already has room, as the WAL's group
	// commit does.
	buf := make([]byte, 0, len(wireBytes))
	encode := testing.AllocsPerRun(20, func() {
		if buf, err = chain.AppendBlockWire(buf[:0], res.Block); err != nil {
			t.Fatalf("encode: %v", err)
		}
	})
	decode := testing.AllocsPerRun(20, func() {
		if _, err := chain.UnmarshalBlock(wireBytes); err != nil {
			t.Fatalf("decode: %v", err)
		}
	})
	// The preimage is built in a pooled buffer, so a warm pool allocates
	// nothing (poolSlack allows for the race detector's pool drops).
	schedule := testing.AllocsPerRun(20, func() {
		if chain.ScheduleHashOf(res.Block.Schedule, res.Block.Profiles) != res.Block.Header.ScheduleHash {
			t.Fatal("schedule hash changed")
		}
	})
	leaves := testing.AllocsPerRun(20, func() { chain.TxLeavesOf(res.Block.Calls) })
	receipts := testing.AllocsPerRun(20, func() {
		if chain.ReceiptRootOf(res.Block.Receipts) != res.Block.Header.ReceiptRoot {
			t.Fatal("receipt root changed")
		}
	})
	t.Logf("AppendBlockWire %.0f allocs per block (ceiling 4), UnmarshalBlock %.0f (ceiling 914), ScheduleHashOf %.0f (ceiling 0), TxLeavesOf %.0f (ceiling 1), ReceiptRootOf %.0f (ceiling 2)",
		encode, decode, schedule, leaves, receipts)
	if encode > 4 {
		t.Errorf("AppendBlockWire allocates %.0f times per block, ceiling 4", encode)
	}
	if schedule > poolSlack {
		t.Errorf("ScheduleHashOf allocates %.0f times per block, ceiling 0", schedule)
	}
	if decode > 914 {
		t.Errorf("UnmarshalBlock allocates %.0f times per block, ceiling 914", decode)
	}
	if leaves > 1 {
		t.Errorf("TxLeavesOf allocates %.0f times per block, ceiling 1", leaves)
	}
	if receipts > 2 {
		t.Errorf("ReceiptRootOf allocates %.0f times per block, ceiling 2", receipts)
	}
}
