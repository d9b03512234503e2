package wire

// FuzzSeeds hands the external golden test the same seed messages the
// fuzzer starts from.
var FuzzSeeds = fuzzSeeds
