package main

// sizes are the fixed input sizes of the four workloads. Set-up is sized
// in ops and places, never in seconds, so the state a measured phase
// starts from (and the state recovery replays) is the same in every run.
type sizes struct {
	ingestApps    int // applications the reports spread over
	ingestPrefill int // reports acked before the timed kill→reopen
	ingestWarm    int // discarded reports after it

	rankPlaces int // places in the ranked category
	rankShadow int // places in the oracle-checked shadow category
	rankWarm   int // discarded queries per client (after the hot pool is loaded)

	freshPlaces   int // places per category (one category per shard)
	freshLive     int // places per category that keep receiving reports
	freshBatch    int // reports per upload batch
	freshProfiles int // rotating rank profiles
	freshPrefill  int // pre-fill cycles per client
	freshWarm     int // discarded cycles per client

	joinApps       int // places the mobility trace visits
	joinPopulation int // members present when the measured phase starts
	joinWarm       int // discarded trace ops per client
}

// digestOps is how many ops per client a workload digest covers.
const digestOps = 256

func fullSizes() sizes {
	return sizes{
		ingestApps: 64, ingestPrefill: 40000, ingestWarm: 4000,
		rankPlaces: 10000, rankShadow: 200, rankWarm: 200,
		freshPlaces: 2000, freshLive: 64, freshBatch: 8, freshProfiles: 16, freshPrefill: 100, freshWarm: 25,
		joinApps: 8, joinPopulation: 160, joinWarm: 10,
	}
}

// testSizes is every workload at 1/100 scale (counts that are structure
// rather than volume — batch size, profile pool, apps — keep a floor), for
// the package's own tests.
func testSizes() sizes {
	return sizes{
		ingestApps: 4, ingestPrefill: 400, ingestWarm: 40,
		rankPlaces: 100, rankShadow: 20, rankWarm: 4,
		freshPlaces: 40, freshLive: 8, freshBatch: 4, freshProfiles: 4, freshPrefill: 4, freshWarm: 2,
		joinApps: 4, joinPopulation: 8, joinWarm: 2,
	}
}
