module sor/bench

go 1.22

require sor v0.0.0

replace sor => ../
