// Fixture for the deadexport analyzer, a module of its own so uses can
// cross packages: this root package re-exports lib's types as aliases,
// lib is the library and cmd/user the command that uses both.
package fixture

import "fixture/lib"

// Request is selected only by cmd/user: under go 1.22 the type checker
// resolves fixture.Request to lib.Request, yet the alias is used.
type Request = lib.Request

// Orphan is selected by nobody.
type Orphan = lib.Orphaned // want "exported type Orphan"
