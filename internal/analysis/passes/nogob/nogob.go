// Package nogob bans encoding/gob from non-test code.
//
// Every byte the node writes or accepts — blocks, snapshots, state, the
// saved pool — is the flat codec (internal/codec). gob is
// reflection-driven and its output is not a stable function of the value
// alone (type registration order leaks into the stream), which is why it
// was retired. Test files are not checked: they fabricate gob-era bytes
// to prove the decoders refuse them.
package nogob

import "contractstm/internal/analysis"

// Analyzer is the nogob pass.
var Analyzer = &analysis.Analyzer{
	Name: "nogob",
	Doc:  "forbid encoding/gob imports in non-test files",
	Run:  run,
}

// banned is the quoted import path, spelled in two halves so that a grep
// of the tree for it finds only real imports.
const banned = `"encoding/` + `gob"`

func run(pass *analysis.Pass) error {
	for _, f := range pass.SourceFiles() {
		for _, imp := range f.Imports {
			if imp.Path.Value == banned {
				pass.Reportf(imp.Pos(), "encoding/gob import: the flat codec (internal/codec) is the only encoding")
			}
		}
	}
	return nil
}
