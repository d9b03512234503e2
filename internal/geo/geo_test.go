package geo

import (
	"math"
	"testing"
	"testing/quick"
)

// Syracuse, NY — where the paper's field tests ran.
var syracuse = Point{Lat: 43.0481, Lon: -76.1474, Alt: 120}

func TestDistanceKnownPair(t *testing.T) {
	// Syracuse to NYC is roughly 315 km great-circle.
	nyc := Point{Lat: 40.7128, Lon: -74.0060}
	d := Distance(syracuse, nyc)
	if d < 300e3 || d > 330e3 {
		t.Fatalf("Syracuse->NYC distance = %v m, want ~315 km", d)
	}
}

func TestDistanceZero(t *testing.T) {
	if d := Distance(syracuse, syracuse); d != 0 {
		t.Fatalf("self distance = %v, want 0", d)
	}
}

func TestDistanceSymmetry(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Point{Lat: math.Mod(math.Abs(lat1), 90), Lon: math.Mod(lon1, 180)}
		b := Point{Lat: -math.Mod(math.Abs(lat2), 90), Lon: math.Mod(lon2, 180)}
		d1, d2 := Distance(a, b), Distance(b, a)
		return math.Abs(d1-d2) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistance3D(t *testing.T) {
	a := syracuse
	b := a
	b.Alt += 30
	if d := Distance3D(a, b); math.Abs(d-30) > 1e-9 {
		t.Fatalf("pure vertical distance = %v, want 30", d)
	}
}

func TestOffsetRoundTrip(t *testing.T) {
	for _, brg := range []float64{0, 45, 90, 135, 180, 270, 359} {
		q := Offset(syracuse, brg, 500)
		d := Distance(syracuse, q)
		if math.Abs(d-500) > 0.5 {
			t.Fatalf("offset %v deg: distance = %v, want 500", brg, d)
		}
		back := InitialBearing(syracuse, q)
		diff := math.Abs(back - brg)
		if diff > 180 {
			diff = 360 - diff
		}
		if diff > 0.5 {
			t.Fatalf("offset %v deg: bearing back = %v", brg, back)
		}
	}
}

func TestInitialBearingCardinal(t *testing.T) {
	north := Offset(syracuse, 0, 1000)
	if b := InitialBearing(syracuse, north); math.Abs(b) > 0.1 && math.Abs(b-360) > 0.1 {
		t.Fatalf("northward bearing = %v", b)
	}
	east := Offset(syracuse, 90, 1000)
	if b := InitialBearing(syracuse, east); math.Abs(b-90) > 0.1 {
		t.Fatalf("eastward bearing = %v", b)
	}
}

func TestTurnAngleStraightAndRight(t *testing.T) {
	a := syracuse
	b := Offset(a, 90, 100)
	cStraight := Offset(b, 90, 100)
	if turn := TurnAngle(a, b, cStraight); turn > 0.2 {
		t.Fatalf("straight-line turn = %v, want ~0", turn)
	}
	cRight := Offset(b, 180, 100)
	if turn := TurnAngle(a, b, cRight); math.Abs(turn-90) > 0.5 {
		t.Fatalf("right-angle turn = %v, want ~90", turn)
	}
}

func TestMengerCurvatureCircle(t *testing.T) {
	// Three points on a circle of radius r should give curvature ~1/r.
	const r = 200.0
	center := syracuse
	var pts [3]Point
	for i, ang := range []float64{0, 30, 60} {
		pts[i] = Offset(center, ang, r)
	}
	k := MengerCurvature(pts[0], pts[1], pts[2])
	if math.Abs(k-1/r) > 0.1/r {
		t.Fatalf("curvature = %v, want ~%v", k, 1/r)
	}
}

func TestMengerCurvatureDegenerate(t *testing.T) {
	a := syracuse
	b := Offset(a, 10, 50)
	if k := MengerCurvature(a, a, b); k != 0 {
		t.Fatalf("coincident points curvature = %v, want 0", k)
	}
	c := Offset(b, 10, 50)
	if k := MengerCurvature(a, b, c); k > 1e-4 {
		t.Fatalf("collinear curvature = %v, want ~0", k)
	}
}

func TestPointValid(t *testing.T) {
	if !syracuse.Valid() {
		t.Fatal("syracuse should be valid")
	}
	bad := []Point{
		{Lat: 91}, {Lat: -91}, {Lon: 181}, {Lon: -181},
		{Alt: math.NaN()}, {Alt: math.Inf(1)},
	}
	for _, p := range bad {
		if p.Valid() {
			t.Fatalf("point %v should be invalid", p)
		}
	}
}

func TestNewPolylineValidation(t *testing.T) {
	if _, err := NewPolyline(nil); err == nil {
		t.Fatal("nil points must error")
	}
	if _, err := NewPolyline([]Point{syracuse}); err == nil {
		t.Fatal("single point must error")
	}
	if _, err := NewPolyline([]Point{syracuse, {Lat: 99}}); err == nil {
		t.Fatal("invalid coordinate must error")
	}
}

func TestPolylineCopiesInput(t *testing.T) {
	pts := []Point{syracuse, Offset(syracuse, 0, 100)}
	pl, err := NewPolyline(pts)
	if err != nil {
		t.Fatal(err)
	}
	pts[0].Lat = 0 // mutate caller slice
	if pl.Points()[0].Lat == 0 {
		t.Fatal("polyline aliases caller slice")
	}
	got := pl.Points()
	got[0].Lat = 0
	if pl.Points()[0].Lat == 0 {
		t.Fatal("Points() aliases internal slice")
	}
}

func TestPolylineLengthAndAt(t *testing.T) {
	a := syracuse
	b := Offset(a, 90, 300)
	c := Offset(b, 90, 700)
	pl, err := NewPolyline([]Point{a, b, c})
	if err != nil {
		t.Fatal(err)
	}
	if l := pl.Length(); math.Abs(l-1000) > 1 {
		t.Fatalf("length = %v, want ~1000", l)
	}
	mid := pl.At(0.5)
	if d := Distance(a, mid); math.Abs(d-500) > 2 {
		t.Fatalf("At(0.5) is %v m from start, want ~500", d)
	}
	if pl.At(-1) != a {
		t.Fatal("At(<0) should clamp to start")
	}
	if pl.At(2) != c {
		t.Fatal("At(>1) should clamp to end")
	}
}

func TestResample(t *testing.T) {
	a := syracuse
	b := Offset(a, 90, 1000)
	pl, err := NewPolyline([]Point{a, b})
	if err != nil {
		t.Fatal(err)
	}
	// Points at even fractions of the length are evenly spaced by arc
	// length.
	prev := pl.At(0)
	for i := 1; i <= 10; i++ {
		p := pl.At(float64(i) / 10)
		if d := Distance(prev, p); math.Abs(d-100) > 1 {
			t.Fatalf("segment %d length = %v, want ~100", i, d)
		}
		prev = p
	}
}

func TestMeanTurnPer100m(t *testing.T) {
	// A straight path has ~0 turn; a zigzag path has substantial turn.
	start := syracuse
	straight := []Point{start}
	for i := 0; i < 10; i++ {
		straight = append(straight, Offset(straight[len(straight)-1], 90, 100))
	}
	if turn := MeanTurnPer100m(straight); turn > 0.5 {
		t.Fatalf("straight turn = %v, want ~0", turn)
	}
	zig := []Point{start}
	brg := 90.0
	for i := 0; i < 10; i++ {
		if i%2 == 0 {
			brg += 60
		} else {
			brg -= 60
		}
		zig = append(zig, Offset(zig[len(zig)-1], brg, 100))
	}
	if turn := MeanTurnPer100m(zig); turn < 30 {
		t.Fatalf("zigzag turn = %v, want > 30 deg/100m", turn)
	}
	if MeanTurnPer100m(straight[:2]) != 0 {
		t.Fatal("short input should yield 0")
	}
}

func TestMeanTurnMonotoneInZigzagAngle(t *testing.T) {
	// Property-flavoured check: sharper zigzags yield larger tortuosity.
	mk := func(step float64) []Point {
		pts := []Point{syracuse}
		brg := 0.0
		for i := 0; i < 20; i++ {
			if i%2 == 0 {
				brg += step
			} else {
				brg -= step
			}
			pts = append(pts, Offset(pts[len(pts)-1], brg, 50))
		}
		return pts
	}
	prev := -1.0
	for _, step := range []float64{5, 20, 45, 80} {
		cur := MeanTurnPer100m(mk(step))
		if cur <= prev {
			t.Fatalf("turn not increasing: step=%v cur=%v prev=%v", step, cur, prev)
		}
		prev = cur
	}
}

// Distance3D and MengerCurvature are the 3D distance and three-point
// curvature the tests above pin; no program needs them.

// Distance3D includes the altitude difference in the distance.
func Distance3D(a, b Point) float64 {
	d := Distance(a, b)
	dz := b.Alt - a.Alt
	return math.Sqrt(d*d + dz*dz)
}

// MengerCurvature returns the discrete curvature (1/m) of the circle through
// the three points, using locally flattened coordinates. Collinear or
// coincident points yield 0.
func MengerCurvature(a, b, c Point) float64 {
	// Project to a local tangent plane anchored at b.
	ax, ay := project(b, a)
	cx, cy := project(b, c)
	// b projects to origin.
	area2 := math.Abs(ax*cy - ay*cx) // 2 * triangle area
	dab := math.Hypot(ax, ay)
	dbc := math.Hypot(cx, cy)
	dca := math.Hypot(cx-ax, cy-ay)
	if dab == 0 || dbc == 0 || dca == 0 {
		return 0
	}
	return 2 * area2 / (dab * dbc * dca)
}

// project maps q into meters east/north of origin o (equirectangular local
// approximation, fine at trail scale).
func project(o, q Point) (x, y float64) {
	x = radians(q.Lon-o.Lon) * EarthRadiusMeters * math.Cos(radians(o.Lat))
	y = radians(q.Lat-o.Lat) * EarthRadiusMeters
	return x, y
}
