package store

import "hash/maphash"

// nameIndex finds a table's row by the name the row itself holds. It is an
// open-addressed table of row+1 (0: empty) whose length is a power of two;
// a name's home slot is its hash under hashSeed and probing is linear. A
// probe compares against the row's own name, so the index stores no
// strings: 4 B a slot, at most three quarters full.
//
// Rows are numbered from 0 in the order they are added and are never
// removed, so the index needs no tombstones and counts rows by the last
// one added. Nothing iterates it: rows are listed in row or name order,
// never in hash order.
type nameIndex []int32

// find returns the row holding key, name giving each row's name.
func (x nameIndex) find(key string, name func(int32) string) (int32, bool) {
	mask := len(x) - 1
	if mask < 0 {
		return 0, false
	}
	for i := int(maphash.String(hashSeed, key)) & mask; x[i] != 0; i = (i + 1) & mask {
		if name(x[i]-1) == key {
			return x[i] - 1, true
		}
	}
	return 0, false
}

// add indexes row r, the next row, under key, which no row holds yet,
// doubling the index first if r would fill more than three quarters of it.
func (x *nameIndex) add(key string, r int32, name func(int32) string) {
	if 4*(int(r)+1) > 3*len(*x) {
		old := *x
		*x = make(nameIndex, max(8, 2*len(old)))
		for _, v := range old {
			if v != 0 {
				x.put(name(v-1), v)
			}
		}
	}
	x.put(key, r+1)
}

// put writes v into the first empty slot of key's probe chain.
func (x nameIndex) put(key string, v int32) {
	mask := len(x) - 1
	i := int(maphash.String(hashSeed, key)) & mask
	for x[i] != 0 {
		i = (i + 1) & mask
	}
	x[i] = v
}
