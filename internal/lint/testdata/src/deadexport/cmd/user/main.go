package main

import (
	"fmt"

	"fixture"
	"fixture/lib"
)

func main() {
	r := fixture.Request{ID: 1}
	fmt.Println(r.ID, lib.UsedElsewhere(), lib.Square{Side: 2}, lib.Run[lib.Counter, int](lib.Counter{}))
}
