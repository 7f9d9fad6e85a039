// Package p is the declaration side of reachcheck's parsing tests: each
// func or method below is reached, or not, by testdata/dump.txt in one
// of the ways the linker names symbols.
package p

// T's String is reached only through an interface conversion edge.
type T struct{}

func (*T) String() string { return "" }

// V's value method is reached only through its pointer wrapper.
type V struct{}

func (V) Value() int { return 0 }

// box's methods are reached only under shape-instantiated names.
type box[E any] struct{ e E }

func (b *box[E]) claim() {}

func (b box[E]) peek() E { return b.e }

func Generic[E any]() {}

func Used() {}

// deferred and spawner are reached only through their closures.
func deferred() {}

func spawner() {}

func init() {}

func init() {}

// hook and refCopy are allowlisted; unused is not.
func hook() {}

func refCopy() {}

func unused() {}
