// Package low is drawn below shapes in the fixture's layer table, yet
// imports it, and imports the oracle outside a test.
package low

import (
	"fixture/internal/oracle"
	"fixture/internal/shapes"
)

// Depth is called by the command.
func Depth() int { return shapes.List{1}.Len() + oracle.Replay() }
