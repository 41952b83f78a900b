package validator

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"contractstm/internal/chain"
	"contractstm/internal/workload"
)

// pipelineBlocks returns n blocks numbered 1…n, cycling over three mined
// blocks; the heights listed in bad get a tampered tx root, which
// Precheck refuses. Pipeline does not link blocks, so they need not form
// a chain.
func pipelineBlocks(t *testing.T, n int, bad ...uint64) []chain.Block {
	t.Helper()
	var mined []chain.Block
	for seed := int64(1); seed <= 3; seed++ {
		_, b := mineBlock(t, workload.Params{Kind: workload.KindToken, Transactions: 12, ConflictPercent: 30, Seed: seed})
		mined = append(mined, b)
	}
	blocks := make([]chain.Block, n)
	for i := range blocks {
		blocks[i] = mined[i%len(mined)]
		blocks[i].Header.Number = uint64(i + 1)
		if slices.Contains(bad, blocks[i].Header.Number) {
			blocks[i].Header.TxRoot[0] ^= 1
		}
	}
	return blocks
}

// emitAll is a producer that emits blocks, then returns end.
func emitAll(blocks []chain.Block, end error) func(context.Context, func(chain.Block) error) error {
	return func(_ context.Context, emit func(chain.Block) error) error {
		for _, b := range blocks {
			if err := emit(b); err != nil {
				return err
			}
		}
		return end
	}
}

// TestPipelineConsumesInHeightOrder: whatever the pool width and window,
// Phase B sees every block once, in emission order, with the outputs
// Precheck gives for that very block — refusals included.
func TestPipelineConsumesInHeightOrder(t *testing.T) {
	blocks := pipelineBlocks(t, 12, 4, 9)
	for _, workers := range []int{1, 2, 4} {
		for _, window := range []int{1, 3, 8} {
			t.Run(fmt.Sprintf("W=%d/window=%d", workers, window), func(t *testing.T) {
				var got []uint64
				consume := func(b chain.Block, pre Prechecked, preErr error) error {
					got = append(got, b.Header.Number)
					want, wantErr := Precheck(b)
					if fmt.Sprint(preErr) != fmt.Sprint(wantErr) || !slices.Equal(pre.TxIDs, want.TxIDs) {
						return fmt.Errorf("height %d: handed %v, %v; Precheck gives %v, %v",
							b.Header.Number, pre.TxIDs, preErr, want.TxIDs, wantErr)
					}
					return nil
				}
				if err := Pipeline(context.Background(), workers, window, emitAll(blocks, nil), consume); err != nil {
					t.Fatal(err)
				}
				if len(got) != len(blocks) {
					t.Fatalf("consumed %v, want heights 1…%d", got, len(blocks))
				}
				for i, h := range got {
					if h != uint64(i+1) {
						t.Fatalf("consumed %v, want heights 1…%d in order", got, len(blocks))
					}
				}
			})
		}
	}
}

// TestPipelineElectsFirstErrorByHeight: Phase B's first error is
// returned as it is, and beats a producer error met further ahead; a
// producer error surfaces only once every block emitted before it was
// consumed. Either way Pipeline returns only after the producer has.
func TestPipelineElectsFirstErrorByHeight(t *testing.T) {
	blocks := pipelineBlocks(t, 8)
	errProduce := errors.New("producer: damaged record")
	cases := []struct {
		name     string
		emitted  int    // blocks the producer emits before returning errProduce
		failAt   uint64 // height whose consume fails (0: none)
		want     error
		consumed int
	}{
		{"consumer-before-producer", 8, 5, nil, 5},
		{"producer-after-all-consumed", 6, 0, errProduce, 6},
		{"producer-before-consumer", 3, 5, errProduce, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			errConsume := fmt.Errorf("consumer: refused height %d", tc.failAt)
			if tc.want == nil {
				tc.want = errConsume
			}
			produced := false
			produce := func(ctx context.Context, emit func(chain.Block) error) error {
				defer func() { produced = true }()
				return emitAll(blocks[:tc.emitted], errProduce)(ctx, emit)
			}
			consumed := 0
			consume := func(b chain.Block, _ Prechecked, _ error) error {
				consumed++
				if b.Header.Number == tc.failAt {
					return errConsume
				}
				return nil
			}
			err := Pipeline(context.Background(), 2, 4, produce, consume)
			if err != tc.want || consumed != tc.consumed {
				t.Fatalf("Pipeline = %v after %d blocks, want %v after %d", err, consumed, tc.want, tc.consumed)
			}
			if !produced {
				t.Fatal("Pipeline returned before its producer")
			}
		})
	}
}

// TestPipelineStopsOnCancel: a context that ends mid-stream ends the
// pipeline with its cause, and the producer sees emit fail.
func TestPipelineStopsOnCancel(t *testing.T) {
	blocks := pipelineBlocks(t, 3)
	cause := errors.New("operator shut the node down")
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	var emitErr error
	produce := func(_ context.Context, emit func(chain.Block) error) error {
		for i := 0; ; i++ {
			b := blocks[i%len(blocks)]
			b.Header.Number = uint64(i + 1)
			if emitErr = emit(b); emitErr != nil {
				return emitErr
			}
		}
	}
	consume := func(b chain.Block, _ Prechecked, _ error) error {
		if b.Header.Number == 3 {
			cancel(cause)
		}
		return nil
	}
	if err := Pipeline(ctx, 2, 2, produce, consume); err != cause {
		t.Fatalf("Pipeline = %v, want the context's cause", err)
	}
	if emitErr == nil {
		t.Fatal("the producer was never told to stop")
	}
}
