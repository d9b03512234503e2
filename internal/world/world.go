// Package world simulates the physical environment SOR senses — the
// substitute for the paper's real Syracuse field sites (see DESIGN.md's
// substitution table). Each Place carries per-feature scalar fields
// (temperature, humidity, brightness, noise, WiFi RSSI) modelled as a base
// level plus a diurnal cycle plus smooth deterministic noise, a surface
// roughness level driving accelerometer variance, and — for trails — a
// geometry with calibrated tortuosity and altitude profile.
//
// All randomness is a deterministic function of (place, field, time), so
// any number of simulated phones sampling the same place at the same time
// observe the same underlying physical truth (plus their own device noise).
package world

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"
	"time"

	"sor/internal/geo"
)

// Field names places may expose.
const (
	FieldTemperature = "temperature" // °F
	FieldHumidity    = "humidity"    // %
	FieldBrightness  = "brightness"  // lux
	FieldNoise       = "noise"       // normalized RMS level 0..1
	FieldWiFi        = "wifi"        // dBm
)

// FieldSpec describes one scalar environmental field.
type FieldSpec struct {
	// Base is the mean level during the field-test window.
	Base float64
	// DiurnalAmp modulates a 24 h sine (peak mid-afternoon).
	DiurnalAmp float64
	// NoiseSigma scales the smooth environmental fluctuation.
	NoiseSigma float64
}

// Place is one target place (coffee shop or hiking trail).
type Place struct {
	Name     string
	Category string // "hiking-trail" or "coffee-shop"
	Loc      geo.Point
	// RadiusM is the geofence radius for participation verification.
	RadiusM float64
	// Fields maps field names to their specs.
	Fields map[string]FieldSpec
	// RoughnessSigma is the accelerometer stddev (m/s²) a walker feels.
	RoughnessSigma float64
	// Trail geometry (nil for coffee shops).
	Trail *Trail
	seed  uint64
}

// Trail is a hiking trail's geometry.
type Trail struct {
	Path *geo.Polyline
	// AltBase and AltAmp define the altitude profile along the path:
	// alt(s) = AltBase + AltAmp * sin(2π s Cycles), s ∈ [0,1].
	AltBase float64
	AltAmp  float64
	Cycles  float64
}

// Validate checks the place definition.
func (p *Place) Validate() error {
	if p == nil {
		return errors.New("world: nil place")
	}
	if p.Name == "" || p.Category == "" {
		return errors.New("world: place needs name and category")
	}
	if !p.Loc.Valid() {
		return fmt.Errorf("world: place %s has invalid location", p.Name)
	}
	if p.RadiusM <= 0 {
		return fmt.Errorf("world: place %s needs a positive geofence radius", p.Name)
	}
	for name, f := range p.Fields {
		if name == "" {
			return fmt.Errorf("world: place %s has unnamed field", p.Name)
		}
		if f.NoiseSigma < 0 {
			return fmt.Errorf("world: place %s field %s has negative noise", p.Name, name)
		}
	}
	if p.RoughnessSigma < 0 {
		return fmt.Errorf("world: place %s has negative roughness", p.Name)
	}
	return nil
}

// hashSeed derives a stable seed from strings.
func hashSeed(parts ...string) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		_, _ = h.Write([]byte(p))
		_, _ = h.Write([]byte{0})
	}
	return h.Sum64()
}

// smoothNoise returns a deterministic, C0-continuous pseudo-random signal
// in [-1, 1]: value noise with 60 s lattice and cosine interpolation.
func smoothNoise(seed uint64, at time.Time) float64 {
	const bucketSec = 60
	sec := float64(at.UnixNano()) / 1e9
	b := math.Floor(sec / bucketSec)
	frac := sec/bucketSec - b
	v0 := lattice(seed, int64(b))
	v1 := lattice(seed, int64(b)+1)
	// Cosine ease for smoothness.
	tt := (1 - math.Cos(frac*math.Pi)) / 2
	return v0*(1-tt) + v1*tt
}

// lattice returns a deterministic value in [-1, 1] for an integer node.
func lattice(seed uint64, node int64) float64 {
	x := seed ^ uint64(node)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x)/float64(math.MaxUint64)*2 - 1
}

// Scalar returns the true value of a field at time at. Unknown fields are
// an error.
func (p *Place) Scalar(field string, at time.Time) (float64, error) {
	spec, ok := p.Fields[field]
	if !ok {
		return 0, fmt.Errorf("world: place %s has no field %q", p.Name, field)
	}
	// Diurnal cycle peaking at 15:00 local.
	hour := float64(at.Hour()) + float64(at.Minute())/60
	diurnal := spec.DiurnalAmp * math.Sin((hour-9)/24*2*math.Pi)
	noise := spec.NoiseSigma * smoothNoise(p.seed^hashSeed(field), at)
	return spec.Base + diurnal + noise, nil
}

// HasField reports whether the place models the field.
func (p *Place) HasField(field string) bool {
	_, ok := p.Fields[field]
	return ok
}

// AltitudeAt returns the trail altitude at path fraction s ∈ [0,1]. For
// places without a trail it returns the place's own altitude.
func (p *Place) AltitudeAt(s float64) float64 {
	if p.Trail == nil {
		return p.Loc.Alt
	}
	return p.Trail.AltBase + p.Trail.AltAmp*math.Sin(2*math.Pi*s*p.Trail.Cycles)
}

// PositionAt returns the trail position at fraction s (with altitude from
// the profile); for non-trail places it returns the place location.
func (p *Place) PositionAt(s float64) geo.Point {
	if p.Trail == nil {
		return p.Loc
	}
	pt := p.Trail.Path.At(s)
	pt.Alt = p.AltitudeAt(s)
	return pt
}

// AccelSample draws one burst of accelerometer readings (residual vertical
// acceleration, m/s²) reflecting the surface roughness. rng is the
// device's own randomness.
func (p *Place) AccelSample(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64() * p.RoughnessSigma
	}
	return out
}

// NoiseSample draws microphone amplitude readings whose RMS matches the
// place's noise field at time at.
func (p *Place) NoiseSample(rng *rand.Rand, at time.Time, n int) ([]float64, error) {
	level, err := p.Scalar(FieldNoise, at)
	if err != nil {
		return nil, err
	}
	if level < 0 {
		level = 0
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64() * level
	}
	return out, nil
}

// World is a registry of places.
type World struct {
	mu     sync.RWMutex
	places map[string]*Place
}

// New creates an empty world.
func New() *World {
	return &World{places: make(map[string]*Place)}
}

// Add registers a place.
func (w *World) Add(p *Place) error {
	if err := p.Validate(); err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, dup := w.places[p.Name]; dup {
		return fmt.Errorf("world: duplicate place %q", p.Name)
	}
	p.seed = hashSeed(p.Category, p.Name)
	w.places[p.Name] = p
	return nil
}

// Place fetches a place by name.
func (w *World) Place(name string) (*Place, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	p, ok := w.places[name]
	if !ok {
		return nil, fmt.Errorf("world: unknown place %q", name)
	}
	return p, nil
}

// BuildTrailPath generates a deterministic trail polyline: segments of
// fixed length whose heading zigzags by ±turnPerSegment degrees, which
// yields a mean turn of ~(turnPerSegment/segmentM*100) °/100 m — the
// knob that calibrates the curvature feature.
func BuildTrailPath(start geo.Point, bearing float64, segments int, segmentM, turnPerSegment float64) (*geo.Polyline, error) {
	if segments < 2 {
		return nil, errors.New("world: trail needs at least 2 segments")
	}
	pts := make([]geo.Point, 0, segments+1)
	pts = append(pts, start)
	cur := start
	brg := bearing
	for i := 0; i < segments; i++ {
		if i%2 == 0 {
			brg += turnPerSegment
		} else {
			brg -= turnPerSegment
		}
		cur = geo.Offset(cur, brg, segmentM)
		pts = append(pts, cur)
	}
	return geo.NewPolyline(pts)
}
