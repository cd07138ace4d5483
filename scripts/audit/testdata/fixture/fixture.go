// Package fixture is the facade of the audit's test module, and its
// non-test caller.
package fixture

import (
	"fmt"

	"fixture/internal/low"
	"fixture/internal/shapes"
)

// Widget is public API: its exported methods count as used.
type Widget = shapes.Widget

// Print uses what it prints.
func Print(r shapes.Ring) {
	fmt.Println(shapes.List{1, 2}.Len(), r, shapes.Box[int]{}.Get(), shapes.Box[int]{}, shapes.Name("x"), low.Depth())
}
