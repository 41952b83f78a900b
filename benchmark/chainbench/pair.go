package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"time"

	"contractstm/internal/api/client"
	"contractstm/internal/api/wire"
	"contractstm/internal/chain"
	"contractstm/internal/contract"
	"contractstm/internal/node"
	"contractstm/internal/persist"
	"contractstm/internal/runtime"
	"contractstm/internal/workload"
)

// durable is the persistence policy of every durable node in the run:
// fsync each block, no periodic snapshots (recovery replays the whole
// WAL, which is what phase E measures).
var durable = persist.Options{SyncEvery: 1, SnapshotEvery: -1}

// blockEvent is one durable block as the subscriber saw it.
type blockEvent struct {
	number uint64
	txs    int
	at     time.Time
	// cpu is the process's CPU time when the event arrived.
	cpu time.Duration
	// maxIdx is the highest call index among the event's receipts.
	maxIdx int
	// idxs lists every receipt's call index (traced run only: the
	// loaded run times each receipt on its own).
	idxs []int32
}

// pair is one leader/follower life: a pipelined durable leader that
// publishes each durable block over HTTP to a durable follower, which
// validates it; one SDK subscription on the follower timestamps every
// block that is durable on both.
type pair struct {
	r        *run
	wl, fwl  *workload.Workload
	leader   *node.Node
	follower *node.Node
	// leaderCfg reopens the leader's data dir in phase E.
	leaderCfg   node.Config
	leaderSrv   *httptest.Server
	followerSrv *httptest.Server
	hc          *http.Client
	toFollower  *client.Client

	// ids maps a content-derived transaction ID to its call index.
	ids map[string]int

	cancel context.CancelFunc
	stream *client.Stream
	events chan blockEvent
	// subDone closes when the subscriber goroutine has exited; the
	// fields below it are the goroutine's until then.
	subDone   chan struct{}
	subErr    error
	receipts  []uint8
	badStatus int
	unknown   int

	// mu guards what the publish hook and the follower middleware write
	// from their own goroutines.
	mu         sync.Mutex
	publishErr error
	// accepts holds the start and end of the follower's n-th block
	// import (traced run only).
	accepts     map[uint64][2]time.Time
	acceptCount uint64
}

func (r *run) nodeRunner() runtime.Runner {
	return runtime.NewOSRunner(runtime.SpinBurn(r.spec.burn))
}

// newPair is phase A: everything a rep needs before its first timed
// operation. Its duration is one setup_s sample. acceptParent names the
// span a traced run records the follower's imports under.
func (r *run) newPair(acceptParent string) (p *pair, err error) {
	start := time.Now()
	defer func() {
		if err != nil {
			err = fmt.Errorf("phase A (setup): %w", err)
		}
	}()
	p = &pair{r: r, events: make(chan blockEvent, 8192), subDone: make(chan struct{}),
		accepts: make(map[uint64][2]time.Time)}
	if p.wl, err = generate(r.spec, r.seed); err != nil {
		return nil, err
	}
	if p.fwl, err = generate(r.spec, r.seed); err != nil {
		return nil, err
	}
	dir := filepath.Join(r.dataRoot, fmt.Sprintf("pair%d", len(r.setups)))
	p.hc = &http.Client{
		Transport: &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 64},
		Timeout:   60 * time.Second,
	}

	p.follower, err = node.New(node.Config{
		World: p.fwl.World, Workers: r.workers, Runner: r.nodeRunner(),
		DataDir: filepath.Join(dir, "follower"), Persist: durable,
		// One subscriber must never be dropped for lagging a whole drain.
		SubscriberBuffer: 1024,
	})
	if err != nil {
		return nil, fmt.Errorf("follower: %w", err)
	}
	p.followerSrv = httptest.NewServer(p.timeAccepts(p.follower.Handler(), acceptParent))
	p.toFollower = client.New(p.followerSrv.URL, client.WithHTTPClient(p.hc))

	p.leaderCfg = node.Config{
		World: p.wl.World, Workers: r.workers, Runner: r.nodeRunner(),
		DataDir: filepath.Join(dir, "leader"), Persist: durable, PipelineDepth: 4,
	}
	cfg := p.leaderCfg
	cfg.Publish = p.publish
	if p.leader, err = node.New(cfg); err != nil {
		p.close()
		return nil, fmt.Errorf("leader: %w", err)
	}
	p.leaderSrv = httptest.NewServer(p.leader.Handler())

	p.ids = make(map[string]int, len(p.wl.Calls))
	for i, c := range p.wl.Calls {
		p.ids[wire.TxIDOf(c).String()] = i
	}
	p.receipts = make([]uint8, len(p.wl.Calls))

	ctx, cancel := context.WithCancel(context.Background())
	p.cancel = cancel
	if p.stream, err = p.toFollower.Subscribe(ctx); err != nil {
		p.close()
		return nil, fmt.Errorf("subscribe: %w", err)
	}
	go p.subscribe()
	r.setups = append(r.setups, time.Since(start).Seconds())
	return p, nil
}

// publish is the leader's post-durability hook: ship the block to the
// follower, which validates and persists it before answering.
func (p *pair) publish(b chain.Block) {
	start := time.Now()
	err := p.toFollower.SendBlock(context.Background(), b)
	p.r.trace.add("cluster.send_block", "", b.Header.Number, start, time.Now())
	if err != nil {
		p.mu.Lock()
		if p.publishErr == nil {
			p.publishErr = fmt.Errorf("send block %d: %w", b.Header.Number, err)
		}
		p.mu.Unlock()
	}
}

// timeAccepts wraps the follower's handler with a span around each
// block import. Imports arrive serially in height order from the
// publish hook, so the n-th import is block n.
func (p *pair) timeAccepts(h http.Handler, parent string) http.Handler {
	if p.r.trace == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost || req.URL.Path != "/v1/blocks" {
			h.ServeHTTP(w, req)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, req)
		end := time.Now()
		p.mu.Lock()
		p.acceptCount++
		id := p.acceptCount
		p.accepts[id] = [2]time.Time{start, end}
		p.mu.Unlock()
		p.r.trace.add("node.accept", parent, id, start, end)
	})
}

// subscribe is the subscriber goroutine: stamp each event on arrival,
// tally its receipts, pass the block on.
func (p *pair) subscribe() {
	defer close(p.subDone)
	for {
		ev, err := p.stream.Next()
		at := time.Now()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, context.Canceled) {
				p.subErr = err
			}
			return
		}
		be := blockEvent{number: ev.Block.Number, txs: ev.Block.TxCount, at: at, cpu: cpuTime(), maxIdx: -1}
		for _, rc := range ev.Receipts {
			idx, ok := p.ids[rc.ID]
			if !ok {
				p.unknown++
				continue
			}
			if rc.Status != wire.StatusCommitted && rc.Status != wire.StatusAborted {
				p.badStatus++
			}
			if p.receipts[idx] < 255 {
				p.receipts[idx]++
			}
			if idx > be.maxIdx {
				be.maxIdx = idx
			}
			if p.r.trace != nil {
				be.idxs = append(be.idxs, int32(idx))
			}
		}
		p.events <- be
	}
}

// await returns the events up to and including block height.
func (p *pair) await(height uint64) ([]blockEvent, error) {
	var out []blockEvent
	timeout := time.NewTimer(60 * time.Second)
	defer timeout.Stop()
	for {
		select {
		case ev := <-p.events:
			out = append(out, ev)
			if ev.number >= height {
				return out, nil
			}
		case <-p.subDone:
			return out, fmt.Errorf("subscription ended before block %d: %v", height, p.subErr)
		case <-timeout.C:
			return out, fmt.Errorf("block %d was not durable on the follower within 60s", height)
		}
	}
}

// unsubscribe ends the subscription and waits for its goroutine, after
// which the receipt tallies are safe to read. Safe to call twice.
func (p *pair) unsubscribe() {
	if p.stream == nil {
		return
	}
	p.stream.Close()
	p.cancel()
	<-p.subDone
	p.stream = nil
}

// submit posts one call and requires the answer a healthy run always
// gets: 202 with verdict admitted.
func submit(ctx context.Context, sdk *client.Client, c contract.Call) error {
	sub, err := sdk.SubmitCall(ctx, c)
	if err == nil && sub.Verdict != "admitted" {
		err = fmt.Errorf("verdict %q", sub.Verdict)
	}
	return err
}

// close stops the subscription, the servers and both nodes. Safe on a
// partially built pair.
func (p *pair) close() {
	p.unsubscribe()
	if p.leaderSrv != nil {
		p.leaderSrv.Close()
		p.leaderSrv = nil
	}
	if p.followerSrv != nil {
		p.followerSrv.Close()
		p.followerSrv = nil
	}
	if p.leader != nil {
		p.leader.Kill()
		p.leader = nil
	}
	if p.follower != nil {
		p.follower.Kill()
		p.follower = nil
	}
	p.hc.CloseIdleConnections()
}

// tallyReceipts closes the subscription and checks that every one of
// the first submitted calls got exactly one committed or aborted
// receipt, and that nothing else was receipted.
func (p *pair) tallyReceipts(submitted int) {
	p.unsubscribe()
	rep := p.r.rep
	rep.check(p.subErr == nil, "subscription failed: %v", p.subErr)
	rep.check(p.unknown == 0, "%d receipts for transactions never submitted", p.unknown)
	rep.check(p.badStatus == 0, "%d receipts neither committed nor aborted", p.badStatus)
	wrong := 0
	for i, n := range p.receipts {
		want := uint8(0)
		if i < submitted {
			want = 1
		}
		if n != want {
			wrong++
		}
	}
	rep.bulk(submitted, wrong, "%d of %d transactions did not get exactly one receipt", wrong, submitted)
	p.mu.Lock()
	rep.check(p.publishErr == nil, "publish to follower failed: %v", p.publishErr)
	p.mu.Unlock()
}
