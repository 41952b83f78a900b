package sched

import (
	"fmt"
	"testing"

	"contractstm/internal/stm"
	"contractstm/internal/types"
)

// BenchmarkAddEdgeHotSpot models the hot-lock edge pattern H building
// produces for a shared counter written by every transaction: one node
// accumulates an edge to every other, and each edge is re-asserted several
// times (once per repeated lock use). With the linear duplicate scan this
// was quadratic in the hot node's degree; the seen-set makes it linear.
func BenchmarkAddEdgeHotSpot(b *testing.B) {
	for _, n := range []int{100, 400, 1600} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := NewGraph(n)
				for rep := 0; rep < 4; rep++ {
					for to := 1; to < n; to++ {
						g.AddEdge(0, to)
					}
				}
				if g.EdgeCount() != n-1 {
					b.Fatalf("edges = %d", g.EdgeCount())
				}
			}
		})
	}
}

// BenchmarkCheckProfileRacesHotLock models the validator's race check over
// a block whose transactions all hold one lock exclusively (a ballot
// counter), chained by H. With counters along the chain the check takes
// the fast path: one edge lookup per transaction. With the counters
// reversed every lookup misses, and the pairwise check over H's closure
// runs instead: n² pairs.
func BenchmarkCheckProfileRacesHotLock(b *testing.B) {
	for _, n := range []int{64, 200} {
		g := NewGraph(n)
		for i := 1; i < n; i++ {
			g.AddEdge(i-1, i)
		}
		hot := stm.LockID{Scope: "bench", Key: "hot"}
		for _, path := range []string{"fast", "fallback"} {
			profiles := make([]stm.Profile, n)
			for i := range profiles {
				counter := uint64(i + 1)
				if path == "fallback" {
					counter = uint64(n - i)
				}
				profiles[i] = stm.Profile{Tx: types.TxID(i), Entries: []stm.ProfileEntry{{Lock: hot, Mode: stm.ModeExclusive, Counter: counter}}}
			}
			b.Run(fmt.Sprintf("n=%d/%s", n, path), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := CheckProfileRaces(g, profiles); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
