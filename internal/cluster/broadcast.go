package cluster

import (
	"context"
	"errors"
	"sync"
	"time"

	"contractstm/internal/api/client"
	"contractstm/internal/chain"
)

// Defaults for Broadcaster's retry schedule.
const (
	// DefaultMaxAttempts is how many times a delivery is tried per peer.
	DefaultMaxAttempts = 3
	// DefaultBackoff is the first retry's delay; it doubles per attempt.
	DefaultBackoff = 25 * time.Millisecond
)

// Broadcaster pushes newly-mined blocks to a set of peers, retrying each
// failed delivery with exponential backoff. Deliveries to distinct peers
// run concurrently; a slow or dead peer never delays the others.
type Broadcaster struct {
	// Peers are the delivery targets.
	Peers []*Peer
	// MaxAttempts bounds tries per peer per block (0 = DefaultMaxAttempts).
	MaxAttempts int
	// Backoff is the first retry delay, doubling per attempt (0 =
	// DefaultBackoff).
	Backoff time.Duration
	// Sleep is the delay function (tests inject a recorder; nil =
	// time.Sleep honoring ctx cancellation).
	Sleep func(time.Duration)
}

// Delivery is one peer's outcome for one broadcast block.
type Delivery struct {
	// Peer is the target's base URL.
	Peer string
	// Attempts is how many tries were made (>= 1).
	Attempts int
	// Err is the final failure, nil on success.
	Err error
}

// Broadcast ships b to every peer and reports per-peer outcomes, indexed
// like Peers. It returns once every delivery has succeeded or exhausted
// its attempts.
//
// Retry policy: transport errors and 5xx answers are retried; a 4xx
// rejection is final for this broadcast (the peer validated and refused —
// resending identical bytes cannot change its mind; catch-up is Sync's
// job). Rejections surface in Delivery.Err as *client.APIError.
func (b *Broadcaster) Broadcast(ctx context.Context, blk chain.Block) []Delivery {
	attempts := b.MaxAttempts
	if attempts <= 0 {
		attempts = DefaultMaxAttempts
	}
	backoff := b.Backoff
	if backoff <= 0 {
		backoff = DefaultBackoff
	}
	sleep := b.Sleep
	if sleep == nil {
		sleep = func(d time.Duration) {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
	}

	out := make([]Delivery, len(b.Peers))
	var wg sync.WaitGroup
	for i, p := range b.Peers {
		wg.Add(1)
		go func(i int, p *Peer) {
			defer wg.Done()
			d := Delivery{Peer: p.URL()}
			delay := backoff
			for d.Attempts < attempts {
				d.Attempts++
				d.Err = p.SendBlock(ctx, blk)
				if d.Err == nil || ctx.Err() != nil || finalRejection(d.Err) {
					break
				}
				if d.Attempts < attempts {
					sleep(delay)
					delay *= 2
				}
			}
			out[i] = d
		}(i, p)
	}
	wg.Wait()
	return out
}

// finalRejection reports whether err is a peer's considered refusal (4xx)
// rather than a transient transport or server failure.
func finalRejection(err error) bool {
	var ae *client.APIError
	return errors.As(err, &ae) && ae.Status >= 400 && ae.Status < 500
}

// Failed filters deliveries down to the failures.
func Failed(ds []Delivery) []Delivery {
	var out []Delivery
	for _, d := range ds {
		if d.Err != nil {
			out = append(out, d)
		}
	}
	return out
}
