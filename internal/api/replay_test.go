package api

import (
	"testing"

	"contractstm/internal/api/wire"
)

func publishN(b *Broker, n int) {
	for i := 0; i < n; i++ {
		b.Publish(&wire.BlockRecord{Number: uint64(i + 1)})
	}
}

// TestBrokerReplayTail: a reconnecting subscriber that names its last
// seen sequence gets exactly the missed tail, complete.
func TestBrokerReplayTail(t *testing.T) {
	b := NewBrokerRetaining(8)
	publishN(b, 5)
	evs, complete := b.Replay(1) // saw seq 0 and 1, missed 2..4
	if !complete || len(evs) != 3 {
		t.Fatalf("Replay(1) = %d events, complete=%v", len(evs), complete)
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+2) {
			t.Fatalf("replayed event %d has seq %d", i, ev.Seq)
		}
	}
}

// TestBrokerReplayCaughtUp: naming the newest sequence replays nothing
// and reports completeness.
func TestBrokerReplayCaughtUp(t *testing.T) {
	b := NewBrokerRetaining(8)
	publishN(b, 3)
	evs, complete := b.Replay(2)
	if !complete || len(evs) != 0 {
		t.Fatalf("caught-up Replay = %d events, complete=%v", len(evs), complete)
	}
}

// TestBrokerReplayGapOutranRing: when the gap exceeds the retained
// window, the broker hands back everything it still has and reports the
// replay incomplete — the caller must resync through the block range
// endpoint.
func TestBrokerReplayGapOutranRing(t *testing.T) {
	b := NewBrokerRetaining(4)
	publishN(b, 10) // ring holds seqs 6..9
	evs, complete := b.Replay(1)
	if complete {
		t.Fatal("gap past the ring reported complete")
	}
	if len(evs) != 4 || evs[0].Seq != 6 || evs[3].Seq != 9 {
		t.Fatalf("partial replay = %+v", evs)
	}
}

// TestBrokerReplayFutureID: a sequence from another broker epoch (a
// restarted server) is not replayable and must not be treated as caught
// up.
func TestBrokerReplayFutureID(t *testing.T) {
	b := NewBrokerRetaining(8)
	publishN(b, 2)
	if evs, complete := b.Replay(99); complete || len(evs) != 0 {
		t.Fatalf("future-id Replay = %d events, complete=%v", len(evs), complete)
	}
}

// TestBrokerReplayDisabled: retention 0 keeps no ring; any replay
// request that actually needs events comes back incomplete.
func TestBrokerReplayDisabled(t *testing.T) {
	b := NewBrokerRetaining(0)
	publishN(b, 3)
	if evs, complete := b.Replay(0); complete || len(evs) != 0 {
		t.Fatalf("disabled-ring Replay = %d events, complete=%v", len(evs), complete)
	}
	// Caught-up is still reportable without a ring.
	if _, complete := b.Replay(2); !complete {
		t.Fatal("caught-up subscriber reported incomplete on a ring-less broker")
	}
}

// TestBrokerReplayCopies: replayed slices are caller-owned; publishing
// past the ring boundary must not mutate them.
func TestBrokerReplayCopies(t *testing.T) {
	b := NewBrokerRetaining(2)
	publishN(b, 2)
	evs, _ := b.Replay(0)
	if len(evs) != 1 || evs[0].Seq != 1 {
		t.Fatalf("replay = %+v", evs)
	}
	publishN(b, 4) // rolls the ring over completely
	if evs[0].Seq != 1 || evs[0].Block.Number != 2 {
		t.Fatalf("replayed event mutated by later publishes: %+v", evs[0])
	}
}

// TestBrokerNextSeq tracks the sequence the next publish will take.
func TestBrokerNextSeq(t *testing.T) {
	b := NewBroker()
	if b.NextSeq() != 0 {
		t.Fatalf("fresh NextSeq = %d", b.NextSeq())
	}
	publishN(b, 3)
	if b.NextSeq() != 3 {
		t.Fatalf("NextSeq after 3 = %d", b.NextSeq())
	}
}
