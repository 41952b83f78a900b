package api

import (
	"testing"

	"contractstm/internal/api/wire"
	"contractstm/internal/chain"
	"contractstm/internal/engine"
	"contractstm/internal/miner"
	"contractstm/internal/runtime"
	"contractstm/internal/types"
	"contractstm/internal/workload"
)

// TestPublishAllocCeiling fails when fanning one block event out to 256
// subscribers — the relay hub's per-event cost — starts to allocate more.
// The event describes the representative block (see
// workload.HotPathParams).
func TestPublishAllocCeiling(t *testing.T) {
	wl, err := workload.Generate(workload.HotPathParams)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	res, err := miner.Mine(engine.MustNew(engine.KindOCC), runtime.NewSimRunner(), wl.World,
		chain.GenesisHeader(types.HashString("g")), wl.Calls, engine.Options{Workers: 3})
	if err != nil {
		t.Fatalf("mine: %v", err)
	}
	rec := wire.RecordOf(res.Block, res.TxIDs)

	broker := NewBroker()
	subs := make([]*Subscription, 256)
	for i := range subs {
		subs[i] = broker.Subscribe(1)
		defer subs[i].Close()
	}
	allocs := testing.AllocsPerRun(50, func() {
		broker.Publish(rec)
		for _, s := range subs {
			<-s.C
		}
	})
	t.Logf("%.0f allocs per event, ceiling 16", allocs)
	if allocs > 16 {
		t.Errorf("Publish to %d subscribers allocates %.0f times per event, ceiling 16", len(subs), allocs)
	}
}
