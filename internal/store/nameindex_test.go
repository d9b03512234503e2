package store

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// TestNameIndexMatchesMap runs seeded random inserts and lookups against a
// map oracle, from an empty index through many doublings. The names
// include the empty string, names that differ only in their last byte and
// 1 KB names, and names never inserted must miss at every size.
func TestNameIndexMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		long := strings.Repeat("x", 1<<10)
		pick := func() string {
			switch n := rng.Intn(3000); {
			case n == 0:
				return ""
			case n%3 == 0:
				return "place-" + string(rune('a'+n%26)) // differ in the last byte
			case n%7 == 0:
				return long[:len(long)-6] + strconv.Itoa(100000+n) // 1 KB
			default:
				return "p" + strconv.Itoa(n)
			}
		}
		absent := []string{"absent", "place-{", "p3000", long, long[:len(long)-6] + "x00000"}

		var x nameIndex
		var names []string
		oracle := map[string]int32{}
		name := func(r int32) string { return names[r] }
		check := func(key string) {
			t.Helper()
			r, ok := x.find(key, name)
			want, wantOK := oracle[key]
			if ok != wantOK || ok && r != want {
				t.Fatalf("seed %d, %d names: find(%.20q) = %d %v, want %d %v", seed, len(names), key, r, ok, want, wantOK)
			}
		}
		doublings := 0
		for step := 0; step < 6000; step++ {
			key := pick()
			if _, ok := oracle[key]; ok || rng.Intn(2) == 0 {
				check(key)
				continue
			}
			size := len(x)
			r := int32(len(names))
			names = append(names, key)
			x.add(key, r, name)
			oracle[key] = r
			if len(x) != size {
				doublings++
				for k := range oracle {
					check(k)
				}
				for _, k := range absent {
					check(k)
				}
			}
			if 4*len(names) > 3*len(x) {
				t.Fatalf("seed %d: %d names in %d slots", seed, len(names), len(x))
			}
		}
		for k := range oracle {
			check(k)
		}
		for _, k := range absent {
			check(k)
		}
		if doublings < 4 {
			t.Fatalf("seed %d: the index doubled %d times", seed, doublings)
		}
	}
}
