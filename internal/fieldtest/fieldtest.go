// Package fieldtest reproduces SOR's §V field experiments end to end: it
// stands up a real sensing server over HTTP, launches a fleet of simulated
// phones at each target place, has each phone scan the place's 2D barcode,
// participate, receive a greedy sensing schedule with a Lua script,
// execute it against the simulated world, and upload binary sensed data;
// the server's Data Processor then produces the Fig. 6 / Fig. 10 feature
// data and the Personalizable Ranker reproduces Tables I and II.
package fieldtest

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"sor/internal/barcode"
	"sor/internal/device"
	"sor/internal/frontend"
	"sor/internal/ranking"
	"sor/internal/server"
	"sor/internal/store"
	"sor/internal/transport"
	"sor/internal/wire"
	"sor/internal/world"
)

// TrailScript is the Lua data-acquisition procedure for hiking trails (the
// §V-A features: temperature, humidity, roughness, curvature, altitude
// change). The script mirrors the Fig. 4 style: ask each sensor for a
// burst of readings and sanity-check the result.
const TrailScript = `
	-- hiking-trail sensing procedure
	local temps = get_temperature_readings(4, 5000)
	local hums  = get_humidity_readings(4, 5000)
	local accel = get_accel_readings(50, 5000)
	local alts  = get_altitude_readings(4, 5000)
	local trace = get_location(8)
	assert(#temps == 4, "temperature burst incomplete")
	assert(#accel == 50, "accelerometer burst incomplete")
	local sum = 0
	for _, v in ipairs(temps) do sum = sum + v end
	return sum / #temps
`

// CoffeeScript is the §V-B coffee-shop procedure (temperature, brightness,
// background noise, WiFi signal strength).
const CoffeeScript = `
	-- coffee-shop sensing procedure
	local temps = get_temperature_readings(4, 5000)
	local light = get_light_readings(4, 5000)
	local noise = get_noise_readings(64, 2000)
	local wifi  = get_wifi_rssi(4, 1000)
	assert(#noise == 64, "microphone burst incomplete")
	local sum = 0
	for _, v in ipairs(noise) do sum = sum + v end
	return sum / #noise
`

// Config parameterizes a field test run.
type Config struct {
	// Category is world.CategoryTrail or world.CategoryCoffee.
	Category string
	// PhonesPerPlace is 7 for trails and 12 for coffee shops in the paper.
	PhonesPerPlace int
	// Budget is each user's NBk for the 3-hour period.
	Budget int
	// Seed makes the run reproducible.
	Seed int64
	// BluetoothFailureRate injects Sensordrone flakiness.
	BluetoothFailureRate float64
	// FaultyPhones makes the first N phones of each place report grossly
	// miscalibrated Sensordrone readings (+FaultBias on temperature,
	// humidity and light).
	FaultyPhones int
	// FaultBias is the miscalibration magnitude (default 40 when
	// FaultyPhones > 0).
	FaultBias float64
	// RobustExtraction enables the server's MAD outlier rejection.
	RobustExtraction bool
}

// Result carries everything the §V experiments report.
type Result struct {
	Category string
	// Features: place -> feature -> value (the Fig. 6 / Fig. 10 data).
	Features map[string]map[string]float64
	// Rankings: profile name -> places best-first (Tables I / II).
	Rankings map[string][]string
	// Phones, Uploads and Measurements summarize the run.
	Phones       int
	Uploads      int
	Measurements int
}

// clock is a mutex-guarded virtual time source shared with the server.
type clock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *clock) Set(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = t
}

// placeSpec describes one target place of a category run.
type placeSpec struct {
	appID string
	name  string
}

// newServer builds a run's sensing server. Tests substitute a durable
// one, whose stored uploads they can read back.
var newServer = server.New

// Run executes the field test and returns the reproduced figures/tables.
func Run(cfg Config) (*Result, error) {
	if cfg.Category != world.CategoryTrail && cfg.Category != world.CategoryCoffee {
		return nil, fmt.Errorf("fieldtest: unknown category %q", cfg.Category)
	}
	if cfg.PhonesPerPlace <= 0 || cfg.Budget <= 0 {
		return nil, errors.New("fieldtest: need positive phone count and budget")
	}

	w, err := world.Canonical()
	if err != nil {
		return nil, err
	}
	// The paper's windows: Nov 17 2013 for trails, Nov 15 for coffee,
	// both 11:00-14:00.
	day := 15
	placeNames := []string{world.TimHortons, world.BNCafe, world.Starbucks}
	script := CoffeeScript
	if cfg.Category == world.CategoryTrail {
		day = 17
		placeNames = []string{world.GreenLakeTrail, world.LongTrail, world.CliffTrail}
		script = TrailScript
	}
	start := time.Date(2013, time.November, day, 11, 0, 0, 0, time.UTC)
	end := start.Add(3 * time.Hour)

	vc := &clock{now: start}
	srv, err := newServer(server.Config{
		DB:               store.New(),
		Now:              vc.Now,
		Catalog:          server.DefaultCatalog(),
		RobustExtraction: cfg.RobustExtraction,
	})
	if err != nil {
		return nil, err
	}
	handler, err := transport.NewHTTPHandler(srv.Handler())
	if err != nil {
		return nil, err
	}
	httpSrv := httptest.NewServer(handler)
	defer httpSrv.Close()

	// Register one application (and print^Wissue one barcode) per place.
	var specs []placeSpec
	codes := make(map[string]*barcode.Matrix)
	for i, name := range placeNames {
		place, err := w.Place(name)
		if err != nil {
			return nil, err
		}
		appID := fmt.Sprintf("%s-%d", cfg.Category, i+1)
		if err := srv.CreateApp(store.Application{
			ID:        appID,
			Creator:   "field-test",
			Category:  cfg.Category,
			Place:     name,
			Lat:       place.Loc.Lat,
			Lon:       place.Loc.Lon,
			RadiusM:   place.RadiusM,
			Script:    script,
			PeriodSec: int64(end.Sub(start) / time.Second),
		}); err != nil {
			return nil, err
		}
		code, err := barcode.Encode(barcode.Payload{
			AppID: appID, Place: name, Server: httpSrv.URL,
		})
		if err != nil {
			return nil, err
		}
		specs = append(specs, placeSpec{appID: appID, name: name})
		codes[appID] = code
	}

	res := &Result{
		Category: cfg.Category,
		Features: make(map[string]map[string]float64),
		Rankings: make(map[string][]string),
	}
	ctx := context.Background()

	for pi, spec := range specs {
		place, err := w.Place(spec.name)
		if err != nil {
			return nil, err
		}
		// Scanning the barcode yields the app id and server address —
		// exactly what a phone needs to participate.
		payload, err := barcode.Decode(codes[spec.appID])
		if err != nil {
			return nil, fmt.Errorf("fieldtest: scanning barcode at %s: %w", spec.name, err)
		}
		client, err := transport.NewClient(payload.Server)
		if err != nil {
			return nil, err
		}

		// Launch the fleet: staggered arrivals in the first minutes.
		type runner struct {
			fe     *frontend.Frontend
			userID string
		}
		var fleet []runner
		faultBias := cfg.FaultBias
		if cfg.FaultyPhones > 0 && faultBias == 0 {
			faultBias = 40
		}
		for i := 0; i < cfg.PhonesPerPlace; i++ {
			arrive := start.Add(time.Duration(i) * 30 * time.Second)
			bias := 0.0
			if i < cfg.FaultyPhones {
				bias = faultBias
			}
			phone, err := device.New(device.Config{
				ID:                   fmt.Sprintf("phone-%d-%d", pi, i),
				Token:                fmt.Sprintf("token-%d-%d", pi, i),
				Traj:                 device.Trajectory{Place: place, Enter: arrive, Leave: end},
				Seed:                 cfg.Seed + int64(pi*1000+i),
				BluetoothFailureRate: cfg.BluetoothFailureRate,
				FaultBias:            bias,
			})
			if err != nil {
				return nil, err
			}
			fe, err := frontend.New(phone, client)
			if err != nil {
				return nil, err
			}
			userID := fmt.Sprintf("user-%d-%d", pi, i)
			vc.Set(arrive)
			phone.SetTime(arrive)
			if _, err := fe.Participate(ctx, userID, payload.AppID, cfg.Budget, end.Sub(arrive)); err != nil {
				return nil, fmt.Errorf("fieldtest: %s participating at %s: %w", userID, spec.name, err)
			}
			fleet = append(fleet, runner{fe: fe, userID: userID})
		}

		// All joins done; every phone pings home (the GCM rendezvous) to
		// fetch its final re-planned schedule, then executes it.
		var wg sync.WaitGroup
		errCh := make(chan error, len(fleet))
		var mu sync.Mutex
		for _, r := range fleet {
			wg.Add(1)
			go func(r runner) {
				defer wg.Done()
				resp, err := client.Send(ctx, &wire.Ping{Token: r.fe.Phone().Token})
				if err != nil {
					errCh <- err
					return
				}
				ack, ok := resp.(*wire.Ack)
				if !ok || !ack.OK || len(ack.Payload) == 0 {
					errCh <- fmt.Errorf("fieldtest: %s got no schedule on ping", r.userID)
					return
				}
				inner, err := wire.Decode(ack.Payload)
				if err != nil {
					errCh <- err
					return
				}
				sched, ok := inner.(*wire.Schedule)
				if !ok {
					errCh <- fmt.Errorf("fieldtest: ping payload was %s", inner.Type())
					return
				}
				upload, err := r.fe.ExecuteSchedule(ctx, sched)
				if err != nil {
					errCh <- err
					return
				}
				mu.Lock()
				res.Uploads++
				res.Measurements += len(sched.AtUnix)
				mu.Unlock()
				_ = upload
			}(r)
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			if err != nil {
				return nil, err
			}
		}
		res.Phones += len(fleet)
	}

	// Fold all uploads into feature rows.
	vc.Set(end)
	srv.Processor().Process()

	matrix, err := srv.FeatureMatrix(cfg.Category)
	if err != nil {
		return nil, err
	}
	for i, placeName := range matrix.Places {
		row := make(map[string]float64, len(matrix.Features))
		for j, f := range matrix.Features {
			row[f.Name] = matrix.Values[i][j]
		}
		res.Features[placeName] = row
	}

	// Personalized rankings through the wire protocol.
	client, err := transport.NewClient(httpSrv.URL)
	if err != nil {
		return nil, err
	}
	for _, prof := range Profiles(cfg.Category) {
		req := &wire.RankRequest{Category: cfg.Category, UserID: prof.Name}
		for feat, pref := range prof.Prefs {
			req.Prefs = append(req.Prefs, wire.PrefEntry{
				Feature: feat,
				Kind:    int(pref.Kind),
				Value:   pref.Value,
				Weight:  pref.Weight,
			})
		}
		sort.Slice(req.Prefs, func(i, j int) bool { return req.Prefs[i].Feature < req.Prefs[j].Feature })
		resp, err := client.Send(ctx, req)
		if err != nil {
			return nil, err
		}
		rr, ok := resp.(*wire.RankResponse)
		if !ok {
			if ack, isAck := resp.(*wire.Ack); isAck {
				return nil, fmt.Errorf("fieldtest: ranking for %s refused: %s", prof.Name, ack.Message)
			}
			return nil, fmt.Errorf("fieldtest: unexpected ranking response %s", resp.Type())
		}
		var order []string
		for _, p := range rr.Ranked {
			order = append(order, p.Place)
		}
		res.Rankings[prof.Name] = order
	}
	return res, nil
}

// Profiles returns the §V user profiles for a category (Figs. 7 and 11,
// reconstructed — see DESIGN.md).
func Profiles(category string) []ranking.Profile {
	if category == world.CategoryTrail {
		return []ranking.Profile{
			{Name: "Alice", Prefs: map[string]ranking.Preference{
				"roughness":       {Kind: ranking.PrefMax, Weight: 5},
				"curvature":       {Kind: ranking.PrefMax, Weight: 5},
				"altitude change": {Kind: ranking.PrefMax, Weight: 5},
				"temperature":     {Kind: ranking.PrefDefault, Weight: 0},
				"humidity":        {Kind: ranking.PrefDefault, Weight: 0},
			}},
			{Name: "Bob", Prefs: map[string]ranking.Preference{
				"temperature":     {Kind: ranking.PrefValue, Value: 73, Weight: 5},
				"humidity":        {Kind: ranking.PrefMin, Weight: 4},
				"roughness":       {Kind: ranking.PrefMin, Weight: 1},
				"curvature":       {Kind: ranking.PrefMin, Weight: 1},
				"altitude change": {Kind: ranking.PrefMin, Weight: 1},
			}},
			{Name: "Chris", Prefs: map[string]ranking.Preference{
				"humidity":        {Kind: ranking.PrefMax, Weight: 5},
				"roughness":       {Kind: ranking.PrefMin, Weight: 2},
				"curvature":       {Kind: ranking.PrefMin, Weight: 2},
				"altitude change": {Kind: ranking.PrefMin, Weight: 2},
				"temperature":     {Kind: ranking.PrefDefault, Weight: 0},
			}},
		}
	}
	return []ranking.Profile{
		{Name: "David", Prefs: map[string]ranking.Preference{
			"temperature": {Kind: ranking.PrefValue, Value: 75, Weight: 5},
			"brightness":  {Kind: ranking.PrefValue, Value: 120, Weight: 4},
			"noise":       {Kind: ranking.PrefDefault, Weight: 0},
			"wifi":        {Kind: ranking.PrefMax, Weight: 1},
		}},
		{Name: "Emma", Prefs: map[string]ranking.Preference{
			"temperature": {Kind: ranking.PrefValue, Value: 71, Weight: 4},
			"noise":       {Kind: ranking.PrefMin, Weight: 4},
			"wifi":        {Kind: ranking.PrefMax, Weight: 5},
			"brightness":  {Kind: ranking.PrefMax, Weight: 2},
		}},
	}
}

// ExpectedRankings returns the paper's Table I / Table II for comparison.
func ExpectedRankings(category string) map[string][]string {
	if category == world.CategoryTrail {
		return map[string][]string{
			"Alice": {world.CliffTrail, world.LongTrail, world.GreenLakeTrail},
			"Bob":   {world.LongTrail, world.CliffTrail, world.GreenLakeTrail},
			"Chris": {world.GreenLakeTrail, world.LongTrail, world.CliffTrail},
		}
	}
	return map[string][]string{
		"David": {world.Starbucks, world.BNCafe, world.TimHortons},
		"Emma":  {world.BNCafe, world.TimHortons, world.Starbucks},
	}
}
