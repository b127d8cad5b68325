package lib

import "testing"

func TestHeld(t *testing.T) {
	Held()
	if OnlyTests() != 1 {
		t.Fatal("OnlyTests")
	}
}
