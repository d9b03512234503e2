// Package geo provides the geodesic primitives SOR needs: WGS-84 points,
// haversine distances, bearings, polyline construction/resampling, and the
// discrete (Menger) curvature estimate that backs the "curvature" hiking
// feature of the paper (its reference [17]).
package geo

import (
	"errors"
	"fmt"
	"math"
)

// EarthRadiusMeters is the mean Earth radius used by the haversine formula.
const EarthRadiusMeters = 6371008.8

// Point is a WGS-84 coordinate with an altitude in meters.
type Point struct {
	Lat float64 `json:"lat"`
	Lon float64 `json:"lon"`
	Alt float64 `json:"alt"`
}

// Valid reports whether the point is a plausible WGS-84 coordinate.
func (p Point) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 180 &&
		!math.IsNaN(p.Alt) && !math.IsInf(p.Alt, 0)
}

// String renders the point for logs.
func (p Point) String() string {
	return fmt.Sprintf("(%.6f,%.6f,%.1fm)", p.Lat, p.Lon, p.Alt)
}

func radians(deg float64) float64 { return deg * math.Pi / 180 }
func degrees(rad float64) float64 { return rad * 180 / math.Pi }

// Distance returns the great-circle (haversine) distance in meters between
// a and b, ignoring altitude.
func Distance(a, b Point) float64 {
	lat1, lat2 := radians(a.Lat), radians(b.Lat)
	dLat := lat2 - lat1
	dLon := radians(b.Lon - a.Lon)
	s := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1)*math.Cos(lat2)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * EarthRadiusMeters * math.Asin(math.Min(1, math.Sqrt(s)))
}

// InitialBearing returns the initial great-circle bearing from a to b in
// degrees within [0, 360).
func InitialBearing(a, b Point) float64 {
	lat1, lat2 := radians(a.Lat), radians(b.Lat)
	dLon := radians(b.Lon - a.Lon)
	y := math.Sin(dLon) * math.Cos(lat2)
	x := math.Cos(lat1)*math.Sin(lat2) - math.Sin(lat1)*math.Cos(lat2)*math.Cos(dLon)
	brg := degrees(math.Atan2(y, x))
	return math.Mod(brg+360, 360)
}

// Offset returns the point reached by travelling distanceMeters from p on
// the given initial bearing (degrees). Altitude is copied unchanged.
func Offset(p Point, bearingDeg, distanceMeters float64) Point {
	ang := distanceMeters / EarthRadiusMeters
	brg := radians(bearingDeg)
	lat1 := radians(p.Lat)
	lon1 := radians(p.Lon)
	lat2 := math.Asin(math.Sin(lat1)*math.Cos(ang) + math.Cos(lat1)*math.Sin(ang)*math.Cos(brg))
	lon2 := lon1 + math.Atan2(
		math.Sin(brg)*math.Sin(ang)*math.Cos(lat1),
		math.Cos(ang)-math.Sin(lat1)*math.Sin(lat2),
	)
	return Point{Lat: degrees(lat2), Lon: math.Mod(degrees(lon2)+540, 360) - 180, Alt: p.Alt}
}

// TurnAngle returns the absolute change of heading, in degrees within
// [0, 180], at point b of the triple (a, b, c).
func TurnAngle(a, b, c Point) float64 {
	h1 := InitialBearing(a, b)
	h2 := InitialBearing(b, c)
	d := math.Abs(h2 - h1)
	if d > 180 {
		d = 360 - d
	}
	return d
}

// Polyline is an ordered sequence of points describing a trail.
type Polyline struct {
	pts []Point
}

// ErrTooShort is returned by polyline operations that need at least two
// points.
var ErrTooShort = errors.New("geo: polyline needs at least 2 points")

// NewPolyline copies pts into a polyline. It returns ErrTooShort for fewer
// than two points and an error for invalid coordinates.
func NewPolyline(pts []Point) (*Polyline, error) {
	if len(pts) < 2 {
		return nil, ErrTooShort
	}
	for i, p := range pts {
		if !p.Valid() {
			return nil, fmt.Errorf("geo: invalid point %d: %v", i, p)
		}
	}
	cp := make([]Point, len(pts))
	copy(cp, pts)
	return &Polyline{pts: cp}, nil
}

// Points returns a copy of the polyline's points.
func (pl *Polyline) Points() []Point {
	cp := make([]Point, len(pl.pts))
	copy(cp, pl.pts)
	return cp
}

// Length returns the total 2D length in meters.
func (pl *Polyline) Length() float64 {
	var total float64
	for i := 1; i < len(pl.pts); i++ {
		total += Distance(pl.pts[i-1], pl.pts[i])
	}
	return total
}

// At returns the interpolated point at the given fraction in [0, 1] of the
// polyline's length. Fractions outside the range are clamped.
func (pl *Polyline) At(frac float64) Point {
	if frac <= 0 {
		return pl.pts[0]
	}
	if frac >= 1 {
		return pl.pts[len(pl.pts)-1]
	}
	target := frac * pl.Length()
	var walked float64
	for i := 1; i < len(pl.pts); i++ {
		seg := Distance(pl.pts[i-1], pl.pts[i])
		if walked+seg >= target && seg > 0 {
			t := (target - walked) / seg
			return lerp(pl.pts[i-1], pl.pts[i], t)
		}
		walked += seg
	}
	return pl.pts[len(pl.pts)-1]
}

func lerp(a, b Point, t float64) Point {
	return Point{
		Lat: a.Lat + (b.Lat-a.Lat)*t,
		Lon: a.Lon + (b.Lon-a.Lon)*t,
		Alt: a.Alt + (b.Alt-a.Alt)*t,
	}
}

// MeanTurnPer100m estimates tortuosity as the mean absolute heading change
// per 100 m of travel — the discrete stand-in for the curvature metric the
// paper computes from GPS traces. It returns 0 for degenerate input.
func MeanTurnPer100m(pts []Point) float64 {
	if len(pts) < 3 {
		return 0
	}
	var totalTurn, totalDist float64
	for i := 1; i < len(pts); i++ {
		totalDist += Distance(pts[i-1], pts[i])
	}
	for i := 1; i < len(pts)-1; i++ {
		totalTurn += TurnAngle(pts[i-1], pts[i], pts[i+1])
	}
	if totalDist == 0 {
		return 0
	}
	return totalTurn / totalDist * 100
}
