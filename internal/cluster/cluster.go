package cluster

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"

	"contractstm/internal/chain"
	"contractstm/internal/contract"
	"contractstm/internal/engine"
	"contractstm/internal/node"
	"contractstm/internal/persist"
	"contractstm/internal/workload"
)

// GenerateWorlds builds n identical genesis worlds for params — workload
// generation is deterministic in the seed, so every copy shares one state
// root — plus the generated call list for the miner to submit. It is the
// one way the harness, the benchmarks and the demo set up a cluster whose
// nodes agree at genesis.
func GenerateWorlds(params workload.Params, n int) ([]*contract.World, []contract.Call, error) {
	worlds := make([]*contract.World, n)
	var calls []contract.Call
	for i := range worlds {
		wl, err := workload.Generate(params)
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: generate world %d: %w", i, err)
		}
		worlds[i] = wl.World
		if i == 0 {
			calls = wl.Calls
		}
	}
	return worlds, calls, nil
}

// Config assembles an in-process cluster: one node per world, each served
// over its own HTTP transport with a peer client pointing at it.
type Config struct {
	// Worlds holds one genesis world per node. All nodes must start from
	// identical state (same state root), or their genesis blocks — and
	// everything after — would differ.
	Worlds []*contract.World
	// Engine selects every node's block-execution engine.
	Engine engine.Kind
	// Workers is each node's mining/validation pool size. Nodes mine and
	// validate on real OS threads and select blocks FIFO.
	Workers int
	// Listen, when non-empty, binds node i to the TCP address Listen[i]
	// (length must match Worlds; use "127.0.0.1:0" for an ephemeral
	// port). Empty means httptest transports — in-process sockets, ideal
	// for tests and benchmarks.
	Listen []string
	// DataDirs, when non-empty, gives node i the durable data directory
	// DataDirs[i] (length must match Worlds; "" leaves that node
	// in-memory).
	DataDirs []string
	// Persist tunes durable nodes' WAL sync and snapshot cadence.
	Persist persist.Options
	// PipelineDepth sets every node's sealed-not-durable window (0/1 =
	// synchronous mining). A pipelining miner publishes blocks to its
	// peers only once they are durable — wire it with PublishVia.
	PipelineDepth int
	// Client overrides the HTTP client the peer handles use.
	Client *http.Client
}

// Cluster runs N in-process nodes behind HTTP servers. Node 0 is the
// conventional miner in the harness helpers, but nothing in the wiring
// privileges it — any node can mine, accept and serve blocks.
type Cluster struct {
	nodes  []*node.Node
	urls   []string
	stops  []func()
	client *http.Client
}

// New builds and starts a cluster. Callers own Close.
func New(cfg Config) (*Cluster, error) {
	if len(cfg.Worlds) == 0 {
		return nil, fmt.Errorf("cluster: no worlds")
	}
	if len(cfg.Listen) > 0 && len(cfg.Listen) != len(cfg.Worlds) {
		return nil, fmt.Errorf("cluster: %d listen addresses for %d worlds", len(cfg.Listen), len(cfg.Worlds))
	}
	if len(cfg.DataDirs) > 0 && len(cfg.DataDirs) != len(cfg.Worlds) {
		return nil, fmt.Errorf("cluster: %d data dirs for %d worlds", len(cfg.DataDirs), len(cfg.Worlds))
	}
	c := &Cluster{client: cfg.Client}
	for i, w := range cfg.Worlds {
		var dataDir string
		if len(cfg.DataDirs) > 0 {
			dataDir = cfg.DataDirs[i]
		}
		n, err := node.New(node.Config{
			World:         w,
			Workers:       cfg.Workers,
			Engine:        cfg.Engine,
			DataDir:       dataDir,
			Persist:       cfg.Persist,
			PipelineDepth: cfg.PipelineDepth,
		})
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("cluster: node %d: %w", i, err)
		}
		// Nodes must share a genesis whenever both still hold block 0 — a
		// recovered node is legitimately ahead of a fresh one, but a
		// *different* chain should fail at construction, not as baffling
		// per-block rejections later. Only fast-synced (pruned) chains,
		// which no longer hold genesis, skip the check.
		if i > 0 {
			mine, okA := n.BlockAt(0)
			theirs, okB := c.nodes[0].BlockAt(0)
			if okA && okB && mine.Header.Hash() != theirs.Header.Hash() {
				c.Close()
				return nil, fmt.Errorf("cluster: node %d genesis differs from node 0 (worlds not identical)", i)
			}
		}
		url, stop, err := serve(n, cfg.Listen, i)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.nodes = append(c.nodes, n)
		c.urls = append(c.urls, url)
		c.stops = append(c.stops, stop)
	}
	return c, nil
}

// serve exposes a node over httptest or a real TCP listener.
func serve(n *node.Node, listen []string, i int) (url string, stop func(), err error) {
	if len(listen) == 0 {
		srv := httptest.NewServer(n.Handler())
		return srv.URL, srv.Close, nil
	}
	ln, err := net.Listen("tcp", listen[i])
	if err != nil {
		return "", nil, fmt.Errorf("cluster: node %d listen %s: %w", i, listen[i], err)
	}
	srv := &http.Server{Handler: n.Handler()}
	go func() { _ = srv.Serve(ln) }()
	return "http://" + ln.Addr().String(), func() { _ = srv.Close() }, nil
}

// Close shuts down every node's HTTP server, then closes the nodes
// (durable ones flush their WAL and save their mempool).
func (c *Cluster) Close() {
	for _, stop := range c.stops {
		stop()
	}
	for _, n := range c.nodes {
		_ = n.Close()
	}
}

// Len returns the number of nodes.
func (c *Cluster) Len() int { return len(c.nodes) }

// Node returns node i.
func (c *Cluster) Node(i int) *node.Node { return c.nodes[i] }

// URL returns node i's base URL.
func (c *Cluster) URL(i int) string { return c.urls[i] }

// Peer returns a client view of node i.
func (c *Cluster) Peer(i int) *Peer { return NewPeer(c.urls[i], c.client) }

// PeersExcept returns clients for every node but i — the broadcast
// targets from node i's point of view.
func (c *Cluster) PeersExcept(i int) []*Peer {
	var out []*Peer
	for j := range c.nodes {
		if j != i {
			out = append(out, c.Peer(j))
		}
	}
	return out
}

// Broadcaster returns a broadcaster from node i to every other node.
func (c *Cluster) Broadcaster(i int) *Broadcaster {
	return &Broadcaster{Peers: c.PeersExcept(i)}
}

// PublishVia wires node i's publish hook to broadcast every durable
// block to the other nodes. The node invokes the hook serially in height
// order, and only after the block's WAL record is durable — so followers
// can never hold a block the miner might lose in a crash, and never see
// height N+1 before height N. The broadcast itself is synchronous within
// the hook, which back-pressures the pipeline on slow followers instead
// of queueing unboundedly ahead of them.
func (c *Cluster) PublishVia(i int) {
	bcast := c.Broadcaster(i)
	c.nodes[i].SetPublish(func(b chain.Block) {
		// Failed deliveries are the broadcaster's retry/backoff business;
		// a permanently dead peer catches up via Sync later.
		_ = bcast.Broadcast(context.Background(), b)
	})
}

// Heads returns every node's head header, indexed like the nodes.
func (c *Cluster) Heads() []chain.Header {
	out := make([]chain.Header, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = n.Head().Header
	}
	return out
}

// Converged reports whether every node shares node 0's head hash.
func (c *Cluster) Converged() bool {
	heads := c.Heads()
	for _, h := range heads[1:] {
		if h.Hash() != heads[0].Hash() {
			return false
		}
	}
	return true
}
