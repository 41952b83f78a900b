// Package crypto provides the hashing substrate for the blockchain layer:
// domain-separated digests and a binary Merkle tree used to commit to a
// block's transaction and receipt lists, hashed a chunk at a time, and
// Fan, which shares such chunks out among goroutines. (The state
// commitment is a keyed trie and lives with the state, in
// internal/storage; its stripes are hashed with Fan too.)
package crypto

import (
	"crypto/sha256"
	"slices"

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

// Chunk is how many leaves a chunk of a tree holds. Pairing level by
// level, the node at level 6, index j, is exactly the root of leaves
// [64j, 64j+64) — the last chunk may be partial — so a tree's chunks hash
// independently and their roots reduce to the tree's root.
const Chunk = 64

// Chunks is how many chunks a tree of n leaves has.
func Chunks(n int) int { return (n + Chunk - 1) / Chunk }

// MerkleRoot computes the root of a binary Merkle tree over the given leaves.
// Odd nodes at each level are promoted unpaired (Bitcoin-style duplication is
// deliberately avoided: duplication admits known malleability). The leaves
// are left as they are: the tree is reduced in place in one scratch copy,
// a chunk at a time.
func MerkleRoot(leaves []types.Hash) types.Hash {
	level := slices.Clone(leaves)
	for j := 0; j < Chunks(len(level)); j++ {
		HashChunk(level, j)
	}
	return RootOfChunks(level)
}

// HashChunk turns chunk j of level, which holds the tree's leaves, into
// the chunk's subtree root, in place: the root lands in level[j*Chunk].
func HashChunk(level []types.Hash, j int) {
	c := level[j*Chunk : min((j+1)*Chunk, len(level))]
	for i, leaf := range c {
		c[i] = hashLeaf(leaf)
	}
	reduce(c)
}

// RootOfChunks is the root of the tree whose every chunk HashChunk has
// hashed in level.
func RootOfChunks(level []types.Hash) types.Hash {
	if len(level) == 0 {
		return emptyRoot()
	}
	n := Chunks(len(level))
	for j := 1; j < n; j++ {
		level[j] = level[j*Chunk]
	}
	return reduce(level[:n])
}

// reduce pairs a non-empty level up in place, level by level, and returns
// the root.
func reduce(level []types.Hash) types.Hash {
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
