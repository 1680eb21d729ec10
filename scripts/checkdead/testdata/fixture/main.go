// Command fixture is the root-module caller of the checkdead fixture.
package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() {
	lib.Used()
	lib.Stale()
	fmt.Println(lib.T{})
}
