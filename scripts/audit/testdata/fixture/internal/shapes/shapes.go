// Package shapes holds the fixture's audited declarations.
package shapes

// List's Len is called by non-test code.
type List []int

// Len returns the list's length.
func (l List) Len() int { return len(l) }

// Ring's Len shares its name with List's but only tests call it: a scan
// by name passes it.
type Ring struct{ n int }

// Len returns the ring's length.
func (r *Ring) Len() int { return r.n }

// limit is used only by tests.
const limit = 3

// helper is called only by tests.
func helper() int { return 1 }

// Box's Get is used only through an instantiation, Box[int].
type Box[T any] struct{ v T }

// Get returns the boxed value.
func (b Box[T]) Get() T { return b.v }

// String is reached only through fmt.Stringer, by Box[int].
func (b Box[T]) String() string { return "box" }

// Name's String is reached only through fmt.Stringer.
type Name string

// String names n.
func (n Name) String() string { return "name " + string(n) }

// Widget is aliased by the facade; nothing here calls Area.
type Widget struct{}

// Area is public API through the facade.
func (Widget) Area() int { return 0 }
