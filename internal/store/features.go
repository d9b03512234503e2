package store

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
)

// The feature table holds one dense table per category: a place is a row,
// a feature name a column, and a cell holds what a FeatureRow holds beyond
// its three names, in pointer-free chunks the collector never scans. A
// FeatureRow is materialised on read, its strings taken from the table.

// cellChunk is the rows of one column chunk: 8 KB of cells.
const cellChunk = 256

// featCell is one (place, feature) value. Updated is kept in the codec's
// form (Unix seconds, and nanoseconds+1 with 0 for the zero time); set
// marks a cell that was written.
type featCell struct {
	value   float64
	samples int64
	sec     int64
	nsec    uint32
	set     bool
}

// featColumn is one feature name's cells, one chunk per cellChunk rows. A
// chunk no row has written is nil, and growth only appends chunks.
type featColumn struct {
	name   string
	chunks []*[cellChunk]featCell
}

// get returns row r's cell, or nil if it was never written.
func (c *featColumn) get(r int32) *featCell {
	if k := int(r) / cellChunk; k < len(c.chunks) && c.chunks[k] != nil {
		if cell := &c.chunks[k][int(r)%cellChunk]; cell.set {
			return cell
		}
	}
	return nil
}

// featTable is one category's feature table and its change clock. ver is
// read without a lock; everything else is guarded by Store.mu.
//
// ver counts material changes: a cell whose value or samples changed, or an
// application joining the category. stamps[row] is the ver at which the
// row last changed (0: never) and appVer the ver of the last join. Each
// bump happens under Store.mu, after the change is in the table, so a
// reader that loaded ver=V and then calls ChangedPlaces finds every change
// numbered ≤ V already stamped, and every change it could not see numbered
// > V (conservative: a reader may be told a place is dirty whose change it
// already saw, never the reverse).
//
// bumps logs every row stamp in ver order, so ChangedPlaces finds the
// stamps after since by binary search and reads only those; an entry whose
// row was stamped again later is superseded. The log is compacted to the
// live entries, one per stamped row, when it reaches twice their number.
type featTable struct {
	category string
	id       int32        // index in Store.cats
	index    nameIndex    // place -> row
	places   []string     // row -> place
	cols     []featColumn // ascending by name
	apps     []int32      // the category's app rows, by app ID

	ver     atomic.Int64
	stamps  []int64
	stamped int // rows with a stamp
	bumps   []rowBump
	appVer  int64
}

// rowBump is one row stamp: the row's cells changed at ver.
type rowBump struct {
	ver int64
	row int32
}

// table returns category's feature table, creating it. Caller holds s.mu
// or owns the store.
func (s *Store) table(category string) *featTable {
	if t := s.lookup(category); t != nil {
		return t
	}
	t := &featTable{category: strings.Clone(category), id: int32(len(s.cats))}
	s.cats = append(s.cats, t)
	s.features.Store(t.category, t)
	return t
}

// lookup returns category's feature table, or nil.
func (s *Store) lookup(category string) *featTable {
	if v, ok := s.features.Load(category); ok {
		return v.(*featTable)
	}
	return nil
}

// col returns the index of feature's column and whether it exists.
func (t *featTable) col(feature string) (int, bool) {
	return slices.BinarySearchFunc(t.cols, feature, func(c featColumn, f string) int { return strings.Compare(c.name, f) })
}

// place returns row r's place.
func (t *featTable) place(r int32) string { return t.places[r] }

// find returns place's row.
func (t *featTable) find(place string) (int32, bool) { return t.index.find(place, t.place) }

// rowFor returns place's row, adding it without cells and copying the
// name.
func (t *featTable) rowFor(place string) int32 {
	r, ok := t.find(place)
	if !ok {
		r = int32(len(t.places))
		t.places = append(t.places, strings.Clone(place))
		t.stamps = append(t.stamps, 0)
		t.index.add(place, r, t.place)
	}
	return r
}

// put writes row into the table, copying the names it keeps, and returns
// the place's row and whether the cell is new or its value or samples
// changed. Caller holds s.mu or owns the store.
func (t *featTable) put(row *FeatureRow) (int32, bool) {
	r := t.rowFor(row.Place)
	i, ok := t.col(row.Feature)
	if !ok {
		t.cols = slices.Insert(t.cols, i, featColumn{name: strings.Clone(row.Feature)})
	}
	c := &t.cols[i]
	k := int(r) / cellChunk
	if k >= len(c.chunks) {
		c.chunks = append(c.chunks, make([]*[cellChunk]featCell, k+1-len(c.chunks))...)
	}
	if c.chunks[k] == nil {
		c.chunks[k] = new([cellChunk]featCell)
	}
	cell := &c.chunks[k][int(r)%cellChunk]
	changed := !cell.set || cell.value != row.Value || cell.samples != int64(row.Samples)
	sec, nsec := stamp(row.Updated)
	*cell = featCell{value: row.Value, samples: int64(row.Samples), sec: sec, nsec: nsec, set: true}
	return r, changed
}

// bump advances the clock and stamps row r with the version it produced.
func (t *featTable) bump(r int32) {
	ver := t.ver.Add(1)
	if t.stamps[r] == 0 {
		t.stamped++
	}
	t.stamps[r] = ver
	t.bumps = append(t.bumps, rowBump{ver, r})
	if len(t.bumps) >= 2*t.stamped {
		t.bumps = slices.DeleteFunc(t.bumps, func(b rowBump) bool { return t.stamps[b.row] != b.ver })
	}
}

// bumpApp advances the clock for an application that just joined the
// category and stamps the join with the version it produced.
func (t *featTable) bumpApp() { t.appVer = t.ver.Add(1) }

// row materialises column c of row r, if that cell was written.
func (t *featTable) row(r int32, c int) (FeatureRow, bool) {
	cell := t.cols[c].get(r)
	if cell == nil {
		return FeatureRow{}, false
	}
	return FeatureRow{Category: t.category, Place: t.places[r], Feature: t.cols[c].name,
		Value: cell.value, Samples: int(cell.samples), Updated: unstamp(cell.sec, cell.nsec)}, true
}

// each calls fn on every written cell as a row, by place then feature.
func (t *featTable) each(fn func(*FeatureRow)) {
	rows := make([]int32, len(t.places))
	for i := range rows {
		rows[i] = int32(i)
	}
	slices.SortFunc(rows, func(a, b int32) int { return strings.Compare(t.places[a], t.places[b]) })
	var row FeatureRow // one for every call: fn's pointer escapes
	for _, r := range rows {
		for c := range t.cols {
			var ok bool
			if row, ok = t.row(r, c); ok {
				fn(&row)
			}
		}
	}
}

// cut copies the table's cells for a checkpoint image. It shares the place
// names: a row's name is never rewritten and places only grows.
func (t *featTable) cut() *featTable {
	n := len(t.places)
	c := &featTable{category: t.category, places: t.places[:n:n], cols: slices.Clone(t.cols)}
	for i := range c.cols {
		chunks := slices.Clone(c.cols[i].chunks)
		for k, chunk := range chunks {
			if chunk != nil {
				dup := *chunk
				chunks[k] = &dup
			}
		}
		c.cols[i].chunks = chunks
	}
	return c
}

// ---- Feature rows ----

// UpsertFeature inserts or replaces a feature row. The category's feature
// version is bumped only when the row's Value or Samples actually change,
// so re-deriving identical features from duplicate data does not churn
// rank-serving snapshots.
func (s *Store) UpsertFeature(row FeatureRow) error {
	if row.Category == "" || row.Place == "" || row.Feature == "" {
		return errors.New("store: feature row needs category, place and feature")
	}
	s.snapMu.RLock()
	defer s.snapMu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.logOp(&walOp{tag: featTag, feat: row}); err != nil {
		return err
	}
	t := s.table(row.Category)
	if r, changed := t.put(&row); changed {
		t.bump(r)
	}
	return nil
}

// FeatureVersion returns the category's monotone feature-change counter.
func (s *Store) FeatureVersion(category string) int64 {
	if t := s.lookup(category); t != nil {
		return t.ver.Load()
	}
	return 0
}

// ChangedPlaces returns the rows of a category's table (those
// FeatureValues' rowOf is indexed by) whose cells changed at a version strictly greater than
// since, ascending, and whether an application joined the category after
// since (the ranked place set may have grown). The result is
// conservative: it may include a change a since-captured reader already
// observed, but never omits one it missed.
func (s *Store) ChangedPlaces(category string, since int64) (rows []int32, appJoined bool) {
	s.mu.RLock()
	if t := s.lookup(category); t != nil {
		// The first stamp after since.
		i, _ := slices.BinarySearchFunc(t.bumps, since+1, func(b rowBump, ver int64) int { return cmp.Compare(b.ver, ver) })
		for _, b := range t.bumps[i:] {
			if t.stamps[b.row] == b.ver {
				rows = append(rows, b.row)
			}
		}
		appJoined = t.appVer > since
	}
	s.mu.RUnlock()
	slices.Sort(rows)
	return rows, appJoined
}

// RowValues reads the named features of rows of a category's table, as
// ChangedPlaces returns them, under one read lock: a row of values per
// row. It reports false if a row lacks one of them.
func (s *Store) RowValues(category string, rows []int32, features []string) ([][]float64, bool) {
	out := make([][]float64, len(rows))
	arena := make([]float64, len(rows)*len(features))
	s.mu.RLock()
	defer s.mu.RUnlock()
	t := s.lookup(category)
	for k, r := range rows {
		out[k] = arena[k*len(features) : (k+1)*len(features) : (k+1)*len(features)]
		for j, f := range features {
			c, ok := t.col(f)
			if !ok {
				return nil, false
			}
			cell := t.cols[c].get(r)
			if cell == nil {
				return nil, false
			}
			out[k][j] = cell.value
		}
	}
	return out, true
}

// Feature fetches one feature row.
func (s *Store) Feature(category, place, feature string) (FeatureRow, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if t := s.lookup(category); t != nil {
		r, ok := t.find(place)
		c, found := t.col(feature)
		if ok && found {
			if row, ok := t.row(r, c); ok {
				return row, nil
			}
		}
	}
	return FeatureRow{}, fmt.Errorf("%w: feature %s/%s/%s", ErrNotFound, category, place, feature)
}

// FeaturesByCategory returns all rows of a category sorted by place then
// feature.
func (s *Store) FeaturesByCategory(category string) []FeatureRow {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t := s.lookup(category)
	if t == nil {
		return []FeatureRow{}
	}
	out := make([]FeatureRow, 0, len(t.places)*len(t.cols))
	t.each(func(row *FeatureRow) { out = append(out, *row) })
	return out
}

// FeatureValues reads a category's ranking matrix: the places of its
// applications in ID order, each once (at its first application), with
// the values of the named features in the order given, skipping a place
// that lacks one, and rowOf, which maps each row of the category's table
// (as ChangedPlaces numbers them) to its place's index, -1 for a row not
// listed. Values are copied under the lock: nothing aliases the table.
func (s *Store) FeatureValues(category string, features []string) (rowOf []int32, places []string, values [][]float64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t := s.lookup(category)
	if t == nil {
		return nil, nil, nil
	}
	cols := make([]*featColumn, len(features))
	for j, f := range features {
		c, ok := t.col(f)
		if !ok {
			return nil, nil, nil // no place has every feature
		}
		cols[j] = &t.cols[c]
	}
	arena := make([]float64, 0, len(t.apps)*len(features))
	rowOf = make([]int32, len(t.places))
	for r := range rowOf {
		rowOf[r] = -1
	}
	for _, a := range t.apps {
		r := s.apps.at(a).place
		if rowOf[r] >= 0 {
			continue // listed at an earlier app; an unlisted one fails again
		}
		start := len(arena)
		for _, c := range cols {
			cell := c.get(r)
			if cell == nil {
				break
			}
			arena = append(arena, cell.value)
		}
		if len(arena)-start != len(features) {
			arena = arena[:start] // place not fully sensed yet
			continue
		}
		rowOf[r] = int32(len(places))
		places = append(places, t.places[r])
		values = append(values, arena[start:len(arena):len(arena)])
	}
	return rowOf, places, values
}
