package mempool

import (
	"sync"
	"testing"

	"contractstm/internal/contract"
	"contractstm/internal/txpool"
	"contractstm/internal/types"
)

// TestConcurrentSubmitSelectRequeue is the -race exercise for the
// sharded pool: trusted submitters and an admission flooder land
// transactions across every shard while a churn loop selects and
// requeues cross-shard batches. Afterwards a full drain must account
// for every queued transaction exactly once, with each sender's calls
// still in its own submission order — the arrival-order merge surviving
// arbitrary interleavings of RequeueBatch and Submit.
func TestConcurrentSubmitSelectRequeue(t *testing.T) {
	const (
		submitters   = 4
		perSubmitter = 400
		admitSenders = 3
		perAdmit     = 200
	)
	p := New(Config{Shards: 8})

	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				p.SubmitTrusted(TxOf(testCall(uint64(g), uint64(i))))
			}
		}()
	}
	var admitted [admitSenders]int
	for g := 0; g < admitSenders; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perAdmit; i++ {
				if d := p.Admit(testCall(uint64(100+g), uint64(i)), 0); d.Verdict.Admitted() {
					admitted[g]++
				}
			}
		}()
	}
	// Churn: select cross-shard batches and put them straight back while
	// the floods are in flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			sel, err := p.SelectBatch(txpool.PolicyFIFO, 16)
			if err != nil {
				continue
			}
			p.RequeueBatch(sel)
		}
	}()
	wg.Wait()

	wantTotal := submitters * perSubmitter
	for g := 0; g < admitSenders; g++ {
		if admitted[g] != perAdmit {
			t.Fatalf("admit sender %d: %d of %d admitted (no limits configured)", g, admitted[g], perAdmit)
		}
		wantTotal += admitted[g]
	}
	if p.Len() != wantTotal {
		t.Fatalf("pool len = %d, want %d", p.Len(), wantTotal)
	}

	// Drain completely and check per-sender FIFO: requeue churn must not
	// reorder any sender's stream.
	lastNonce := map[types.Address]int{}
	drained := 0
	for {
		sel, err := p.SelectBatch(txpool.PolicyFIFO, 64)
		if err != nil {
			break
		}
		for _, c := range sel.Calls {
			drained++
			got := nonceOf(c)
			if last, seen := lastNonce[c.Sender]; seen && got <= last {
				t.Fatalf("sender %v: nonce %d after %d — per-sender order lost", c.Sender, got, last)
			}
			lastNonce[c.Sender] = got
		}
	}
	if drained != wantTotal {
		t.Fatalf("drained %d, want %d", drained, wantTotal)
	}
}

// nonceOf recovers testCall's nonce from the amount argument.
func nonceOf(c contract.Call) int {
	return int(c.Args[1].(uint64))
}
