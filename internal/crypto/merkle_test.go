package crypto

import (
	"math/rand"
	"testing"
	"testing/quick"

	"contractstm/internal/types"
)

func leaves(n int) []types.Hash {
	out := make([]types.Hash, n)
	for i := range out {
		out[i] = types.HashBytes([]byte{byte(i), byte(i >> 8)})
	}
	return out
}

func TestMerkleRootEmpty(t *testing.T) {
	r1 := MerkleRoot(nil)
	r2 := MerkleRoot([]types.Hash{})
	if r1 != r2 {
		t.Fatal("empty roots differ for nil vs empty slice")
	}
	if r1.IsZero() {
		t.Fatal("empty root should not be the zero hash")
	}
}

func TestMerkleRootSingleLeafIsNotRawLeaf(t *testing.T) {
	leaf := types.HashString("only")
	root := MerkleRoot([]types.Hash{leaf})
	if root == leaf {
		t.Fatal("single-leaf root equals the raw leaf; leaf hashing must be domain-separated")
	}
}

func TestMerkleRootDeterministic(t *testing.T) {
	ls := leaves(17)
	if MerkleRoot(ls) != MerkleRoot(ls) {
		t.Fatal("MerkleRoot is not deterministic")
	}
}

func TestMerkleRootSensitiveToEveryLeaf(t *testing.T) {
	for n := 1; n <= 9; n++ {
		base := MerkleRoot(leaves(n))
		for i := 0; i < n; i++ {
			mut := leaves(n)
			mut[i] = types.HashString("tampered")
			if MerkleRoot(mut) == base {
				t.Fatalf("n=%d: tampering leaf %d did not change the root", n, i)
			}
		}
	}
}

func TestMerkleRootSensitiveToOrder(t *testing.T) {
	ls := leaves(4)
	swapped := leaves(4)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if MerkleRoot(ls) == MerkleRoot(swapped) {
		t.Fatal("swapping leaves did not change the root")
	}
}

func TestMerkleRootSensitiveToLength(t *testing.T) {
	if MerkleRoot(leaves(3)) == MerkleRoot(leaves(4)[:3:3]) {
		// identical prefix, same content: roots equal is fine; this guards the
		// comparison below from a silly fixture bug.
		t.Log("prefix roots equal as expected")
	}
	if MerkleRoot(leaves(3)) == MerkleRoot(leaves(4)) {
		t.Fatal("adding a leaf did not change the root")
	}
}

// Property: in a random-size tree of random leaves, tampering with any one
// leaf, or dropping the last, changes the root.
func TestMerkleProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		ls := make([]types.Hash, n)
		for i := range ls {
			var b [16]byte
			rng.Read(b[:])
			ls[i] = types.HashBytes(b[:])
		}
		root := MerkleRoot(ls)
		if MerkleRoot(ls[:n-1]) == root {
			return false
		}
		ls[rng.Intn(n)][0] ^= 1
		return MerkleRoot(ls) != root
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMerkleRoot1000(b *testing.B) {
	ls := leaves(1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MerkleRoot(ls)
	}
}
