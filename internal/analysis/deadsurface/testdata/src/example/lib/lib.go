// Package lib is the deadsurface fixture: an exported surface some of
// which the program uses.
package lib

import "fmt"

// Used is called by the program.
func Used() int { return helper() }

func helper() int { return Base + 1 }

// Base is used by unexported code, which is assumed live.
const Base = 1

// FromOutside is used by a package out of scope only.
func FromOutside() {}

// Unused is called by nothing.
func Unused() {} // want `exported func lib\.Unused has no non-test use`

// Dead is an unused constant.
const Dead = 1 // want `exported const lib\.Dead has no non-test use`

// Var is an unused variable.
var Var = 2 // want `exported var lib\.Var has no non-test use`

// Orphan is an unused type.
type Orphan struct{} // want `exported type lib\.Orphan has no non-test use`

// Live is a type the program declares a value of.
type Live struct{}

// Spare is a method nothing calls on a live type.
func (Live) Spare() {} // want `exported method lib\.Live\.Spare has no non-test use`

// TestOnly is called from lib's own _test.go file only.
func TestOnly() {} // want `exported func lib\.TestOnly has no non-test use`

// Island is used only by its own methods and its unused constructor.
type Island struct{ next *Island } // want `exported type lib\.Island has no non-test use`

// NewIsland makes an Island.
func NewIsland() *Island { return &Island{} } // want `exported func lib\.NewIsland has no non-test use`

// Grow returns a bigger Island.
func (i *Island) Grow() *Island { return &Island{next: i} } // want `exported method lib\.Island\.Grow has no non-test use`

func (i *Island) size() int { return 1 }

// Shape is an interface the program uses.
type Shape interface{ Area() float64 }

// Square implements Shape and fmt.Stringer.
type Square struct{}

// Area implements Shape: a call through the interface reaches it.
func (Square) Area() float64 { return 1 }

// String implements fmt.Stringer, which fmt calls.
func (Square) String() string { return fmt.Sprint("square") }

// Kept has no use but a reason to stay, so what it calls counts.
//
//adsvet:ignore deadsurface kept as public API of the fixture
func Kept() { KeptDep() }

// KeptDep is used by Kept only.
func KeptDep() {}

// Bare is kept by a directive that gives no reason, which keeps nothing.
func Bare() {} /* want `exported func lib\.Bare has no non-test use` `adsvet:ignore deadsurface needs a reason` */ //adsvet:ignore deadsurface
