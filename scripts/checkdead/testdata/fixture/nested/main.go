// Command nested is the nested-module caller of the checkdead fixture.
package main

import "fixture/internal/lib"

func main() { lib.NestedOnly() }
