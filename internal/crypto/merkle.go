// Package crypto provides the hashing substrate for the blockchain layer:
// domain-separated digests and a binary Merkle tree used to commit to a
// block's transaction and receipt lists. (The state commitment is a keyed
// trie and lives with the state, in internal/storage.)
package crypto

import (
	"crypto/sha256"

	"contractstm/internal/types"
)

// Domain-separation tags. Hashing a leaf and an interior node with different
// prefixes defeats second-preimage attacks that graft subtrees as leaves.
const (
	tagLeaf  byte = 0x00
	tagNode  byte = 0x01
	tagEmpty byte = 0x02
)

// emptyRoot is the Merkle root of an empty leaf list, computed lazily.
func emptyRoot() types.Hash {
	return sha256.Sum256([]byte{tagEmpty})
}

// MerkleRoot computes the root of a binary Merkle tree over the given leaves.
// Odd nodes at each level are promoted unpaired (Bitcoin-style duplication is
// deliberately avoided: duplication admits known malleability). The leaves
// are left as they are: the tree is reduced in place in one scratch copy,
// each level overwriting the front of the one below it.
func MerkleRoot(leaves []types.Hash) types.Hash {
	if len(leaves) == 0 {
		return emptyRoot()
	}
	level := make([]types.Hash, len(leaves))
	for i, leaf := range leaves {
		level[i] = hashLeaf(leaf)
	}
	for n := len(level); n > 1; n = (n + 1) / 2 {
		for i := 0; i < n; i += 2 {
			if i+1 < n {
				level[i/2] = hashNode(level[i], level[i+1])
			} else {
				level[i/2] = level[i]
			}
		}
	}
	return level[0]
}

func hashLeaf(h types.Hash) types.Hash {
	buf := make([]byte, 1+types.HashLen)
	buf[0] = tagLeaf
	copy(buf[1:], h[:])
	return sha256.Sum256(buf)
}

func hashNode(l, r types.Hash) types.Hash {
	buf := make([]byte, 1+2*types.HashLen)
	buf[0] = tagNode
	copy(buf[1:], l[:])
	copy(buf[1+types.HashLen:], r[:])
	return sha256.Sum256(buf)
}
