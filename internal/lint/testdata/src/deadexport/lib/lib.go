package lib

import "fmt"

// Request is used through the root package's alias only.
type Request struct{ ID int }

// Orphaned is used by the root package's unused alias, which is use enough.
type Orphaned struct{}

func Unused() {} // want "exported func Unused"

// OnlyTests is called from lib_test.go alone.
func OnlyTests() int { return 1 } // want "exported func OnlyTests"

// UsedElsewhere is called from cmd/user.
func UsedElsewhere() int { return 2 }

const Dead = 3 // want "exported const Dead"

var Stale = 4 // want "exported var Stale"

type shape interface{ Area() float64 }

// Square is used from cmd/user.
type Square struct {
	Side  float64
	Color string // want "exported field Color"
}

// Area satisfies the module's shape interface.
func (s Square) Area() float64 { return s.Side * s.Side }

// String satisfies fmt.Stringer.
func (s Square) String() string { return fmt.Sprint(s.Side) }

func (s Square) Perimeter() float64 { return 4 * s.Side } // want "exported method (Square).Perimeter"

// Folder's method carries its type parameter, so no signature matches
// it: Counter.Fold is used as Run's type argument.
type Folder[E any] interface{ Fold() E }

// Run folds f once.
func Run[F Folder[E], E any](f F) E { return f.Fold() }

// Counter is Run's type argument in cmd/user.
type Counter struct{}

// Fold is called through Run's constraint.
func (Counter) Fold() int { return 1 }

//lint:ignore deadexport TestHeld holds it
func Held() {}

// want+2 "unjustified"
//
//lint:ignore deadexport
func NoReason() {} // want "exported func NoReason"
