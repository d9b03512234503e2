// Package device simulates a participating smartphone — the stand-in for
// the paper's Google Nexus4 test phones. A Phone owns a trajectory through
// a target place, a deterministic noise source, and a full sensor suite
// wired into the simulated world: embedded sensors (GPS, accelerometer,
// microphone, WiFi, barometer) plus a Sensordrone's external sensors
// (temperature, humidity, light) behind a simulated Bluetooth link.
package device

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"sor/internal/geo"
	"sor/internal/sensors"
	"sor/internal/stats"
	"sor/internal/world"
)

// Acquisition function names exposed to Lua scripts, one per sensor
// (the names registered with the Provider Register; §II-A).
const (
	FnTemperature = "get_temperature_readings"
	FnHumidity    = "get_humidity_readings"
	FnLight       = "get_light_readings"
	FnWiFi        = "get_wifi_rssi"
	FnNoise       = "get_noise_readings"
	FnAccel       = "get_accel_readings"
	FnAltitude    = "get_altitude_readings"
	FnLocation    = "get_location"
)

// ScriptFunctions lists every acquisition function a task script may call:
// the frontend's whitelist, and the host names luascript.Parse accepts
// when the server checks a script at app creation.
var ScriptFunctions = []string{
	FnTemperature, FnHumidity, FnLight, FnWiFi,
	FnNoise, FnAccel, FnAltitude, FnLocation,
}

// Trajectory describes where the phone is over time: stationary at a
// coffee-shop table, or walking a trail from Enter to Leave.
type Trajectory struct {
	Place *world.Place
	Enter time.Time
	Leave time.Time
}

// Validate checks the trajectory.
func (tr Trajectory) Validate() error {
	if tr.Place == nil {
		return errors.New("device: trajectory needs a place")
	}
	if !tr.Leave.After(tr.Enter) {
		return errors.New("device: trajectory needs Leave after Enter")
	}
	return nil
}

// FractionAt returns walk progress through the place in [0, 1].
func (tr Trajectory) FractionAt(at time.Time) float64 {
	total := tr.Leave.Sub(tr.Enter)
	if total <= 0 {
		return 0
	}
	f := float64(at.Sub(tr.Enter)) / float64(total)
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// PositionAt returns the phone's true position at a time.
func (tr Trajectory) PositionAt(at time.Time) geo.Point {
	return tr.Place.PositionAt(tr.FractionAt(at))
}

// Phone is one simulated device.
type Phone struct {
	ID    string
	Token string

	mu   sync.Mutex
	traj Trajectory
	rng  *rand.Rand
	now  time.Time

	manager *sensors.Manager
	link    *sensors.BluetoothLink

	// measurement noise levels (per-device miscalibration is drawn once).
	tempBias   float64
	humBias    float64
	faultBias  float64
	gpsJitterM float64

	energyMilliJ float64 // toy energy ledger: cost per acquisition
}

// Config parameterizes a phone.
type Config struct {
	ID    string
	Token string
	Traj  Trajectory
	Seed  int64
	// BluetoothFailureRate injects transient Sensordrone failures.
	BluetoothFailureRate float64
	// FaultBias simulates a grossly miscalibrated external sensor board:
	// it is added to every Sensordrone reading (temperature, humidity,
	// light). Zero = healthy device.
	FaultBias float64
	// AcquireTimeout bounds sensor acquisitions (default 2s).
	AcquireTimeout time.Duration
}

// New builds a phone and registers its full sensor suite.
func New(cfg Config) (*Phone, error) {
	if cfg.ID == "" || cfg.Token == "" {
		return nil, errors.New("device: phone needs id and token")
	}
	if err := cfg.Traj.Validate(); err != nil {
		return nil, err
	}
	rng := stats.NewRand(cfg.Seed)
	timeout := cfg.AcquireTimeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	p := &Phone{
		ID:         cfg.ID,
		Token:      cfg.Token,
		traj:       cfg.Traj,
		rng:        rng,
		now:        cfg.Traj.Enter,
		manager:    sensors.NewManager(sensors.WithAcquireTimeout(timeout)),
		link:       sensors.NewBluetoothLink(rng.Int63(), time.Millisecond, 0, cfg.BluetoothFailureRate),
		tempBias:   rng.NormFloat64()*0.2 + cfg.FaultBias,
		humBias:    rng.NormFloat64()*0.5 + cfg.FaultBias,
		faultBias:  cfg.FaultBias,
		gpsJitterM: 2 + rng.Float64()*2,
	}
	if err := p.registerProviders(); err != nil {
		return nil, err
	}
	return p, nil
}

// SetTime advances the phone's simulated clock (the harness sets it to
// each scheduled instant before running the task script).
func (p *Phone) SetTime(at time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.now = at
}

// Position returns the true position at the simulated clock.
func (p *Phone) Position() geo.Point {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.traj.PositionAt(p.now)
}

// Manager exposes the sensor manager (the frontend binds it to scripts).
func (p *Phone) Manager() *sensors.Manager { return p.manager }

// EnergySpentMilliJ reports the toy energy ledger.
func (p *Phone) EnergySpentMilliJ() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.energyMilliJ
}

// chargeEnergy accrues a per-reading cost.
func (p *Phone) chargeEnergy(readings int, external bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	cost := 0.05 * float64(readings)
	if external {
		cost *= 3 // Bluetooth costs more
	}
	p.energyMilliJ += cost
}

// scalarSampler builds a Sample closure for a world field with
// device-level gaussian noise and bias. Like every sampler below it draws
// from p.rng under p.mu: concurrent task instances share the one source.
func (p *Phone) scalarSampler(field string, bias, noise float64, external bool) func(sensors.Request) (sensors.Reading, error) {
	return func(req sensors.Request) (sensors.Reading, error) {
		p.mu.Lock()
		place := p.traj.Place
		p.mu.Unlock()
		truth, err := place.Scalar(field, req.At)
		if err != nil {
			return sensors.Reading{}, err
		}
		vals := make([]float64, req.Count)
		p.mu.Lock()
		for i := range vals {
			vals[i] = truth + bias + p.rng.NormFloat64()*noise
		}
		p.mu.Unlock()
		p.chargeEnergy(req.Count, external)
		return sensors.Reading{At: req.At, Window: req.Window, Values: vals}, nil
	}
}

func (p *Phone) registerProviders() error {
	embedded := func(kind string, sample func(sensors.Request) (sensors.Reading, error)) sensors.Provider {
		return &sensors.FuncProvider{SensorKind: kind, SensorSource: sensors.SourceEmbedded, Sample: sample}
	}
	droneProvider := func(kind string, sample func(sensors.Request) (sensors.Reading, error)) sensors.Provider {
		inner := &sensors.FuncProvider{SensorKind: kind, SensorSource: sensors.SourceExternal, Sample: sample}
		return sensors.WrapExternal(inner, p.link, 3)
	}

	regs := []struct {
		fn       string
		provider sensors.Provider
		needs    string // world field required, "" = always available
	}{
		{FnTemperature, droneProvider("temperature",
			p.scalarSampler(world.FieldTemperature, p.tempBias, 0.3, true)), world.FieldTemperature},
		{FnHumidity, droneProvider("humidity",
			p.scalarSampler(world.FieldHumidity, p.humBias, 0.6, true)), world.FieldHumidity},
		{FnLight, droneProvider("light",
			p.scalarSampler(world.FieldBrightness, p.faultBias, 5, true)), world.FieldBrightness},
		{FnWiFi, embedded("wifi",
			p.scalarSampler(world.FieldWiFi, 0, 1.0, false)), world.FieldWiFi},
		{FnNoise, embedded("microphone", p.sampleNoise), world.FieldNoise},
		{FnAccel, embedded("accelerometer", p.sampleAccel), ""},
		{FnAltitude, embedded("barometer", p.sampleAltitude), ""},
		{FnLocation, embedded("gps", p.sampleLocation), ""},
	}
	for _, r := range regs {
		if r.needs != "" && !p.traj.Place.HasField(r.needs) {
			continue // the place does not exhibit this phenomenon
		}
		if err := p.manager.Register(r.fn, r.provider); err != nil {
			return fmt.Errorf("device: registering %s: %w", r.fn, err)
		}
	}
	return nil
}

func (p *Phone) sampleNoise(req sensors.Request) (sensors.Reading, error) {
	p.mu.Lock()
	vals, err := p.traj.Place.NoiseSample(p.rng, req.At, req.Count)
	p.mu.Unlock()
	if err != nil {
		return sensors.Reading{}, err
	}
	p.chargeEnergy(req.Count, false)
	return sensors.Reading{At: req.At, Window: req.Window, Values: vals}, nil
}

func (p *Phone) sampleAccel(req sensors.Request) (sensors.Reading, error) {
	p.mu.Lock()
	vals := p.traj.Place.AccelSample(p.rng, req.Count)
	p.mu.Unlock()
	p.chargeEnergy(req.Count, false)
	return sensors.Reading{At: req.At, Window: req.Window, Values: vals}, nil
}

func (p *Phone) sampleAltitude(req sensors.Request) (sensors.Reading, error) {
	vals := make([]float64, req.Count)
	p.mu.Lock()
	truth := p.traj.Place.AltitudeAt(p.traj.FractionAt(req.At))
	for i := range vals {
		vals[i] = truth + p.rng.NormFloat64()*0.5
	}
	p.mu.Unlock()
	p.chargeEnergy(req.Count, false)
	return sensors.Reading{At: req.At, Window: req.Window, Values: vals}, nil
}

func (p *Phone) sampleLocation(req sensors.Request) (sensors.Reading, error) {
	defer p.chargeEnergy(req.Count, false) // runs after the unlock below
	p.mu.Lock()
	defer p.mu.Unlock()
	rng, traj, jitter := p.rng, p.traj, p.gpsJitterM

	if trail := traj.Place.Trail; trail != nil && req.Count >= 2 {
		// On a trail a GPS request records a short continuous burst of
		// filtered fixes along the walk (the paper computes curvature from
		// GPS traces [17]); we return fixes at consecutive path vertices
		// starting from the walker's position, with sub-meter jitter as a
		// Kalman-filtered receiver would produce.
		verts := trail.Path.Points()
		k := int(traj.FractionAt(req.At) * float64(len(verts)-1))
		if k > len(verts)-req.Count {
			k = len(verts) - req.Count
		}
		if k < 0 {
			k = 0
		}
		end := k + req.Count
		if end > len(verts) {
			end = len(verts)
		}
		pts := make([]geo.Point, 0, end-k)
		for i := k; i < end; i++ {
			fix := geo.Offset(verts[i], rng.Float64()*360, rng.NormFloat64()*0.5)
			fix.Alt = traj.Place.AltitudeAt(float64(i) / float64(len(verts)-1))
			pts = append(pts, fix)
		}
		return sensors.Reading{At: req.At, Window: req.Window, Points: pts}, nil
	}

	truth := traj.PositionAt(req.At)
	pts := make([]geo.Point, req.Count)
	for i := range pts {
		pts[i] = geo.Offset(truth, rng.Float64()*360, rng.NormFloat64()*jitter)
		pts[i].Alt = truth.Alt + rng.NormFloat64()*1.5
	}
	return sensors.Reading{At: req.At, Window: req.Window, Points: pts}, nil
}
