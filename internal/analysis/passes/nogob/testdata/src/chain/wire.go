// wire.go imports gob in a non-test file of a package that once had a
// sanctioned gob file: there is no allowlist any more, so it must fire.
package chain

import (
	"bytes"
	"encoding/gob" // want `encoding/gob import: the flat codec`
)

// Frame is a wire frame.
type Frame struct{ N int }

// DecodeFrame decodes a frame the forbidden way.
func DecodeFrame(b []byte) (Frame, error) {
	var f Frame
	err := gob.NewDecoder(bytes.NewReader(b)).Decode(&f)
	return f, err
}
