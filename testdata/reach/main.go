// Command fix is the program whose reach the controls measure.
package main

import (
	"fmt"

	"fix/internal/a"
)

func main() {
	fmt.Println(a.UsedByMain(), a.New(a.WithQuiet()))
}
