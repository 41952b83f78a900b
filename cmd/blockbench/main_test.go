package main

import (
	"bytes"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestQuickGoldens: simulated gas-time is deterministic, so the quick
// Table 1 and the quick engine comparison print the same bytes on every
// host. A change to an engine, the runtime, the scheduler or the validator
// that moves any cell shows here. If the move is intended, regenerate the
// files with
//
//	go run ./cmd/blockbench -quick -table1 > cmd/blockbench/testdata/quick-table1.golden
//	go run ./cmd/blockbench -quick -engines > cmd/blockbench/testdata/quick-engines.golden
//
// and say why in the change.
func TestQuickGoldens(t *testing.T) {
	for _, c := range []struct{ flag, golden string }{
		{"-table1", "testdata/quick-table1.golden"},
		{"-engines", "testdata/quick-engines.golden"},
	} {
		want, err := os.ReadFile(c.golden)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := run([]string{"-quick", c.flag}, &got); err != nil {
			t.Fatalf("blockbench -quick %s: %v", c.flag, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("blockbench -quick %s differs from %s:\n%s", c.flag, c.golden, firstDiff(got.String(), string(want)))
		}
	}
}

// firstDiff shows the first line where got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range max(len(g), len(w)) {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return "line " + strconv.Itoa(i+1) + ":\n got  " + gl + "\n want " + wl
		}
	}
	return "(trailing bytes)"
}
