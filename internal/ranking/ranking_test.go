package ranking

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// trailMatrix is the calibrated §V-A feature matrix (see DESIGN.md):
// places are Green Lake Trail, Long Trail, Cliff Trail.
func trailMatrix() *Matrix {
	return &Matrix{
		Places: []string{"Green Lake Trail", "Long Trail", "Cliff Trail"},
		Features: []Feature{
			{Name: "temperature", Unit: "°F", Default: Preference{Kind: PrefValue, Value: 73}},
			{Name: "humidity", Unit: "%", Default: Preference{Kind: PrefValue, Value: 45}},
			{Name: "roughness", Unit: "m/s²", Default: Preference{Kind: PrefMin}},
			{Name: "curvature", Unit: "°/100m", Default: Preference{Kind: PrefMin}},
			{Name: "altitude change", Unit: "m", Default: Preference{Kind: PrefMin}},
		},
		Values: [][]float64{
			{46, 68, 0.5, 25, 5},
			{50, 55, 0.9, 45, 15},
			{49, 50, 1.4, 70, 28},
		},
	}
}

// coffeeMatrix is the calibrated §V-B feature matrix: places are
// Tim Hortons, B&N Cafe, Starbucks.
func coffeeMatrix() *Matrix {
	return &Matrix{
		Places: []string{"Tim Hortons", "B&N Cafe", "Starbucks"},
		Features: []Feature{
			{Name: "temperature", Unit: "°F", Default: Preference{Kind: PrefValue, Value: 73}},
			{Name: "brightness", Unit: "lux", Default: Preference{Kind: PrefMax}},
			{Name: "noise", Unit: "", Default: Preference{Kind: PrefMin}},
			{Name: "wifi", Unit: "dBm", Default: Preference{Kind: PrefMax}},
		},
		Values: [][]float64{
			{66, 1000, 0.05, -62},
			{71, 400, 0.08, -50},
			{73, 150, 0.18, -72},
		},
	}
}

// The five §V profiles (Figs. 7 & 11, reconstructed per DESIGN.md).
func alice() Profile {
	return Profile{Name: "Alice", Prefs: map[string]Preference{
		"roughness":       {Kind: PrefMax, Weight: 5},
		"curvature":       {Kind: PrefMax, Weight: 5},
		"altitude change": {Kind: PrefMax, Weight: 5},
		"temperature":     {Kind: PrefDefault, Weight: 0},
		"humidity":        {Kind: PrefDefault, Weight: 0},
	}}
}

func bob() Profile {
	return Profile{Name: "Bob", Prefs: map[string]Preference{
		"temperature":     {Kind: PrefValue, Value: 73, Weight: 5},
		"humidity":        {Kind: PrefMin, Weight: 4},
		"roughness":       {Kind: PrefMin, Weight: 1},
		"curvature":       {Kind: PrefMin, Weight: 1},
		"altitude change": {Kind: PrefMin, Weight: 1},
	}}
}

func chris() Profile {
	return Profile{Name: "Chris", Prefs: map[string]Preference{
		"humidity":        {Kind: PrefMax, Weight: 5},
		"roughness":       {Kind: PrefMin, Weight: 2},
		"curvature":       {Kind: PrefMin, Weight: 2},
		"altitude change": {Kind: PrefMin, Weight: 2},
		"temperature":     {Kind: PrefDefault, Weight: 0},
	}}
}

func david() Profile {
	return Profile{Name: "David", Prefs: map[string]Preference{
		"temperature": {Kind: PrefValue, Value: 75, Weight: 5},
		"brightness":  {Kind: PrefValue, Value: 120, Weight: 4},
		"noise":       {Kind: PrefDefault, Weight: 0},
		"wifi":        {Kind: PrefMax, Weight: 1},
	}}
}

func emma() Profile {
	return Profile{Name: "Emma", Prefs: map[string]Preference{
		"temperature": {Kind: PrefValue, Value: 71, Weight: 4},
		"noise":       {Kind: PrefMin, Weight: 4},
		"wifi":        {Kind: PrefMax, Weight: 5},
		"brightness":  {Kind: PrefMax, Weight: 2},
	}}
}

func rankOrder(t *testing.T, m *Matrix, p Profile) []string {
	t.Helper()
	r, err := NewRanker(m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Rank(p)
	if err != nil {
		t.Fatal(err)
	}
	return res.Order
}

func assertOrder(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

// TestTableIHikingRankings reproduces the paper's Table I exactly.
func TestTableIHikingRankings(t *testing.T) {
	m := trailMatrix()
	assertOrder(t, rankOrder(t, m, alice()),
		[]string{"Cliff Trail", "Long Trail", "Green Lake Trail"})
	assertOrder(t, rankOrder(t, m, bob()),
		[]string{"Long Trail", "Cliff Trail", "Green Lake Trail"})
	assertOrder(t, rankOrder(t, m, chris()),
		[]string{"Green Lake Trail", "Long Trail", "Cliff Trail"})
}

// TestTableIICoffeeRankings reproduces the paper's Table II exactly.
func TestTableIICoffeeRankings(t *testing.T) {
	m := coffeeMatrix()
	assertOrder(t, rankOrder(t, m, david()),
		[]string{"Starbucks", "B&N Cafe", "Tim Hortons"})
	assertOrder(t, rankOrder(t, m, emma()),
		[]string{"B&N Cafe", "Tim Hortons", "Starbucks"})
}

func TestPreferenceValidate(t *testing.T) {
	good := []Preference{
		{Kind: PrefValue, Value: 73, Weight: 5},
		{Kind: PrefMin, Weight: 0},
		{Kind: PrefMax, Weight: 3},
		{Kind: PrefDefault, Weight: 2},
	}
	for i, p := range good {
		if err := p.Validate(); err != nil {
			t.Fatalf("good case %d: %v", i, err)
		}
	}
	bad := []Preference{
		{},
		{Kind: PrefValue, Value: math.NaN(), Weight: 1},
		{Kind: PrefValue, Value: math.Inf(1), Weight: 1},
		{Kind: PrefMin, Weight: -1},
		{Kind: PrefMin, Weight: 6},
		{Kind: PrefKind(99), Weight: 1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("bad case %d should fail", i)
		}
	}
}

func TestMatrixValidate(t *testing.T) {
	if err := (*Matrix)(nil).Validate(); err == nil {
		t.Fatal("nil matrix must error")
	}
	ok := trailMatrix()
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Matrix){
		func(m *Matrix) { m.Places = nil },
		func(m *Matrix) { m.Features = nil },
		func(m *Matrix) { m.Values = m.Values[:1] },
		func(m *Matrix) { m.Features[0].Name = "" },
		func(m *Matrix) { m.Features[1].Name = m.Features[0].Name },
		func(m *Matrix) { m.Values[0] = m.Values[0][:2] },
		func(m *Matrix) { m.Values[1][1] = math.NaN() },
		func(m *Matrix) { m.Features[0].Default = Preference{Kind: PrefDefault} },
		func(m *Matrix) { m.Features[0].Default = Preference{Kind: PrefValue, Weight: 9} },
	}
	for i, mutate := range cases {
		m := trailMatrix()
		mutate(m)
		if err := m.Validate(); err == nil {
			t.Fatalf("mutation %d should fail validation", i)
		}
	}
}

func TestRankerGammaComputation(t *testing.T) {
	m := coffeeMatrix()
	r, err := NewRanker(m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Rank(david())
	if err != nil {
		t.Fatal(err)
	}
	// Γ for temperature with preferred 75: |66-75|=9, |71-75|=4, |73-75|=2.
	if res.Gamma[0][0] != 9 || res.Gamma[1][0] != 4 || res.Gamma[2][0] != 2 {
		t.Fatalf("temperature gamma = %v %v %v",
			res.Gamma[0][0], res.Gamma[1][0], res.Gamma[2][0])
	}
}

func TestDefaultPreferenceFallsBack(t *testing.T) {
	// A profile that says nothing uses each feature's default preference;
	// weights default to the feature default's weight.
	m := &Matrix{
		Places: []string{"a", "b"},
		Features: []Feature{
			{Name: "f", Default: Preference{Kind: PrefMin, Weight: 3}},
		},
		Values: [][]float64{{2}, {1}},
	}
	r, err := NewRanker(m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Rank(Profile{Name: "nobody"})
	if err != nil {
		t.Fatal(err)
	}
	assertOrder(t, res.Order, []string{"b", "a"})
	if res.Weights["f"] != 3 {
		t.Fatalf("default weight = %d, want 3", res.Weights["f"])
	}
}

func TestZeroWeightProfileIdentityOrder(t *testing.T) {
	m := trailMatrix()
	r, err := NewRanker(m)
	if err != nil {
		t.Fatal(err)
	}
	prof := Profile{Name: "apathetic", Prefs: map[string]Preference{
		"temperature":     {Kind: PrefDefault, Weight: 0},
		"humidity":        {Kind: PrefDefault, Weight: 0},
		"roughness":       {Kind: PrefDefault, Weight: 0},
		"curvature":       {Kind: PrefDefault, Weight: 0},
		"altitude change": {Kind: PrefDefault, Weight: 0},
	}}
	res, err := r.Rank(prof)
	if err != nil {
		t.Fatal(err)
	}
	assertOrder(t, res.Order, m.Places)
	if res.FootruleCost != 0 {
		t.Fatalf("footrule cost = %v for all-zero weights", res.FootruleCost)
	}
}

func TestInvalidProfileRejected(t *testing.T) {
	m := trailMatrix()
	r, err := NewRanker(m)
	if err != nil {
		t.Fatal(err)
	}
	prof := Profile{Name: "bad", Prefs: map[string]Preference{
		"temperature": {Kind: PrefValue, Value: 70, Weight: 9},
	}}
	if _, err := r.Rank(prof); err == nil {
		t.Fatal("weight 9 must be rejected")
	}
}

func TestMinMaxSentinelsOrderExtremes(t *testing.T) {
	m := &Matrix{
		Places: []string{"low", "mid", "high"},
		Features: []Feature{
			{Name: "x", Default: Preference{Kind: PrefMin}},
		},
		Values: [][]float64{{1}, {5}, {9}},
	}
	r, err := NewRanker(m)
	if err != nil {
		t.Fatal(err)
	}
	resMin, err := r.Rank(Profile{Name: "min", Prefs: map[string]Preference{
		"x": {Kind: PrefMin, Weight: 5},
	}})
	if err != nil {
		t.Fatal(err)
	}
	assertOrder(t, resMin.Order, []string{"low", "mid", "high"})
	resMax, err := r.Rank(Profile{Name: "max", Prefs: map[string]Preference{
		"x": {Kind: PrefMax, Weight: 5},
	}})
	if err != nil {
		t.Fatal(err)
	}
	assertOrder(t, resMax.Order, []string{"high", "mid", "low"})
}

func TestResultCostsConsistent(t *testing.T) {
	m := coffeeMatrix()
	r, err := NewRanker(m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Rank(emma())
	if err != nil {
		t.Fatal(err)
	}
	if res.FootruleCost < 0 || res.KemenyCost < 0 {
		t.Fatalf("negative costs: %v %v", res.FootruleCost, res.KemenyCost)
	}
	// Footrule upper-bounds Kemeny per ranking pair, so the weighted sums
	// obey KemenyCost <= FootruleCost.
	if res.KemenyCost > res.FootruleCost+1e-9 {
		t.Fatalf("Kemeny %v > footrule %v", res.KemenyCost, res.FootruleCost)
	}
}

// Property: Rank always returns a permutation of the places, with
// OrderIdx/Order consistent, for random matrices and profiles.
func TestRankPermutationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		mf := 1 + rng.Intn(5)
		m := &Matrix{}
		for i := 0; i < n; i++ {
			m.Places = append(m.Places, "p"+string(rune('a'+i)))
		}
		for j := 0; j < mf; j++ {
			kind := []PrefKind{PrefValue, PrefMin, PrefMax}[rng.Intn(3)]
			m.Features = append(m.Features, Feature{
				Name:    "f" + string(rune('a'+j)),
				Default: Preference{Kind: kind, Value: rng.Float64() * 10, Weight: rng.Intn(6)},
			})
		}
		m.Values = make([][]float64, n)
		for i := range m.Values {
			m.Values[i] = make([]float64, mf)
			for j := range m.Values[i] {
				m.Values[i][j] = rng.Float64() * 100
			}
		}
		r, err := NewRanker(m)
		if err != nil {
			return false
		}
		prof := Profile{Name: "rand", Prefs: map[string]Preference{}}
		for j := 0; j < mf; j++ {
			if rng.Intn(2) == 0 {
				continue // let defaults kick in
			}
			kind := []PrefKind{PrefValue, PrefMin, PrefMax, PrefDefault}[rng.Intn(4)]
			prof.Prefs[m.Features[j].Name] = Preference{
				Kind: kind, Value: rng.Float64() * 100, Weight: rng.Intn(6),
			}
		}
		res, err := r.Rank(prof)
		if err != nil {
			return false
		}
		seen := make([]bool, n)
		for pos, idx := range res.OrderIdx {
			if idx < 0 || idx >= n || seen[idx] {
				return false
			}
			seen[idx] = true
			if res.Order[pos] != m.Places[idx] {
				return false
			}
		}
		return len(res.OrderIdx) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: scaling H and preferred values by a positive constant leaves
// the ranking unchanged (the algorithm depends only on distance order).
func TestRankScaleInvarianceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		scale := 1 + rng.Float64()*9
		m1 := trailMatrix()
		m2 := trailMatrix()
		for i := range m2.Values {
			for j := range m2.Values[i] {
				m2.Values[i][j] *= scale
			}
		}
		prof1 := bob()
		prof2 := bob()
		p := prof2.Prefs["temperature"]
		p.Value *= scale
		prof2.Prefs["temperature"] = p
		r1, err := NewRanker(m1)
		if err != nil {
			return false
		}
		r2, err := NewRanker(m2)
		if err != nil {
			return false
		}
		res1, err := r1.Rank(prof1)
		if err != nil {
			return false
		}
		res2, err := r2.Rank(prof2)
		if err != nil {
			return false
		}
		for i := range res1.Order {
			if res1.Order[i] != res2.Order[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRankCoffee(b *testing.B) {
	m := coffeeMatrix()
	r, err := NewRanker(m)
	if err != nil {
		b.Fatal(err)
	}
	prof := emma()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Rank(prof); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRank100Places(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := &Matrix{}
	for i := 0; i < 100; i++ {
		m.Places = append(m.Places, "place"+string(rune('a'+i%26))+string(rune('0'+i/26)))
	}
	for j := 0; j < 8; j++ {
		m.Features = append(m.Features, Feature{
			Name:    "f" + string(rune('a'+j)),
			Default: Preference{Kind: PrefMin, Weight: 3},
		})
	}
	m.Values = make([][]float64, 100)
	for i := range m.Values {
		m.Values[i] = make([]float64, 8)
		for j := range m.Values[i] {
			m.Values[i][j] = rng.Float64() * 100
		}
	}
	r, err := NewRanker(m)
	if err != nil {
		b.Fatal(err)
	}
	prof := Profile{Name: "x", Prefs: map[string]Preference{
		"fa": {Kind: PrefMax, Weight: 5},
		"fb": {Kind: PrefValue, Value: 50, Weight: 2},
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Rank(prof); err != nil {
			b.Fatal(err)
		}
	}
}
