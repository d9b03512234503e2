package store

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// The apps table holds each application as a fixed row: its ID, its four
// numbers, and small references for the rest. Its category is the index
// of the category's feature table (Store.cats), its place a row of that
// table, so a place's name is stored once whichever of its application
// and its feature cells came first, and its creator and script are
// numbers in a dictionary of the distinct strings. An Application is
// materialised on read, its strings taken from the tables.

// appChunk is the rows of one chunk of the apps table: 4 032 B, which the
// allocator's 8-byte header for an object holding pointers brings to its
// 4 KB size class, so a store of a few apps holds little more than their
// rows.
const appChunk = 63

// appRow is one application.
type appRow struct {
	id               string
	lat, lon, radius float64
	period           int64
	cat, place       int32  // feature table (Store.cats) and its row
	creator, script  uint32 // dictionary numbers (appTable.strs)
}

// appTable is the applications, one row each in chunks that growth never
// copies, with an ID → row index. Rows are never removed. Guarded by
// Store.mu.
type appTable struct {
	index  nameIndex
	n      int32 // rows
	chunks []*[appChunk]appRow
	strs   dict // creators and scripts
}

// dict numbers distinct strings, copying each when it is added.
type dict struct {
	ids  map[string]uint32
	strs []string
}

func (d *dict) id(s string) uint32 {
	if i, ok := d.ids[s]; ok {
		return i
	}
	if d.ids == nil {
		d.ids = make(map[string]uint32)
	}
	i := uint32(len(d.strs))
	s = strings.Clone(s)
	d.ids[s] = i
	d.strs = append(d.strs, s)
	return i
}

// at returns row r.
func (a *appTable) at(r int32) *appRow { return &a.chunks[r/appChunk][r%appChunk] }

// id returns row r's ID.
func (a *appTable) id(r int32) string { return a.at(r).id }

// find returns the row of the application with ID id.
func (a *appTable) find(id string) (int32, bool) { return a.index.find(id, a.id) }

// app materialises row r. Caller holds s.mu.
func (s *Store) app(r int32) Application {
	row := s.apps.at(r)
	t := s.cats[row.cat]
	return Application{ID: row.id, Creator: s.apps.strs.strs[row.creator], Category: t.category,
		Place: t.places[row.place], Lat: row.lat, Lon: row.lon, RadiusM: row.radius,
		Script: s.apps.strs.strs[row.script], PeriodSec: row.period}
}

// setApp writes one application, replacing the row with its ID, and keeps
// its category's app list in step; the place gets a row in the category's
// feature table, without cells if it has none. The table copies what it
// keeps but the ID. Caller holds s.mu or owns the store.
func (s *Store) setApp(a *Application) *featTable {
	t := s.table(a.Category)
	r, listed := s.apps.find(a.ID)
	if !listed {
		r = s.apps.n
		if int(r)/appChunk == len(s.apps.chunks) {
			s.apps.chunks = append(s.apps.chunks, new([appChunk]appRow))
		}
		s.apps.at(r).id = a.ID
		s.apps.index.add(a.ID, r, s.apps.id)
		s.apps.n++
	} else if old := s.cats[s.apps.at(r).cat]; old != t {
		i := s.appIndex(old, a.ID)
		old.apps = slices.Delete(old.apps, i, i+1)
		listed = false
	}
	row := s.apps.at(r)
	*row = appRow{id: row.id, lat: a.Lat, lon: a.Lon, radius: a.RadiusM, period: a.PeriodSec,
		cat: t.id, place: t.rowFor(a.Place), creator: s.apps.strs.id(a.Creator), script: s.apps.strs.id(a.Script)}
	if !listed {
		i := s.appIndex(t, a.ID)
		t.apps = slices.Insert(t.apps, i, r)
	}
	return t
}

// appIndex is where id sits, or would sit, in t's app list.
func (s *Store) appIndex(t *featTable, id string) int {
	i, _ := slices.BinarySearchFunc(t.apps, id, func(r int32, id string) int { return strings.Compare(s.apps.at(r).id, id) })
	return i
}

// putApp applies a logged application: a new one can add a place to its
// category's ranking matrix, so the category's feature version is bumped.
func (s *Store) putApp(a *Application) {
	if t := s.setApp(a); a.Category != "" {
		t.bumpApp()
	}
}

// PutApp inserts an application.
func (s *Store) PutApp(a Application) error {
	if a.ID == "" {
		return errors.New("store: application needs an id")
	}
	s.snapMu.RLock()
	defer s.snapMu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.apps.find(a.ID); ok {
		return fmt.Errorf("%w: app %s", ErrDuplicate, a.ID)
	}
	if err := s.logOp(&walOp{tag: appTag, app: a}); err != nil {
		return err
	}
	s.putApp(&a)
	return nil
}

// App fetches an application.
func (s *Store) App(id string) (Application, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.apps.find(id)
	if !ok {
		return Application{}, fmt.Errorf("%w: app %s", ErrNotFound, id)
	}
	return s.app(r), nil
}

// AppsByCategory lists applications in a category sorted by ID.
func (s *Store) AppsByCategory(category string) []Application {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t := s.lookup(category)
	if t == nil {
		return []Application{}
	}
	out := make([]Application, len(t.apps))
	for i, r := range t.apps {
		out[i] = s.app(r)
	}
	return out
}

// Apps lists all applications sorted by ID.
func (s *Store) Apps() []Application {
	s.mu.RLock()
	out := make([]Application, s.apps.n)
	for r := range out {
		out[r] = s.app(int32(r))
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
