// Command tool stands in for a caller outside the module's programs.
package main

import "fix/internal/a"

func main() { a.UsedByTool() }
