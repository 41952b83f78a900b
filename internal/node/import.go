package node

import (
	"contractstm/internal/chain"
	"contractstm/internal/validator"
)

// The names in this block select nothing and count nothing. They remain
// only because the frozen benchmark/ module still compiles against them
// (with the Config.ImportMode field); the benchmark PR that stops naming
// them deletes all four.
type ImportMode int

const ImportOn ImportMode = 0

func (n *Node) ImportDivergences() int64 { return 0 }

// ImportPrechecked imports a block whose stateless validation phase
// (validator.Precheck) already ran — concurrently, on the staged pipeline
// (internal/importer). pre and preErr are that phase's outputs for b, which
// are a function of b's bytes alone: nothing a peer said is trusted by
// using them. Linkage against the live head runs first, so a duplicate or
// mislinked block is answered before preErr is; then fork-join replay and
// the crash rules — the same core AcceptBlock runs.
func (n *Node) ImportPrechecked(b chain.Block, pre validator.Prechecked, preErr error) error {
	return n.acceptBlock(b, func(chain.Block) (validator.Prechecked, error) { return pre, preErr })
}
