package stream

import "math"

// table is an open-addressing hash from a uint64 key to a non-negative
// or small-negative int32 value: linear probing over a power-of-two
// array kept at most half full, Fibonacci hashing, and backward-shift
// deletion, so a steady churn of puts and dels neither leaves tombstones
// nor allocates. The engine keeps two: cell coordinate → slab id and
// live point ID → slot.
type table struct {
	keys  []uint64
	vals  []int32 // vacant where the slot is free
	n     int
	shift uint
}

// vacant marks a free slot; no caller stores it as a value.
const vacant = math.MinInt32

func newTable() *table {
	t := &table{}
	t.resize(4)
	return t
}

func (t *table) resize(bits uint) {
	t.keys = make([]uint64, 1<<bits)
	t.vals = make([]int32, 1<<bits)
	for i := range t.vals {
		t.vals[i] = vacant
	}
	t.shift = 64 - bits
	t.n = 0
}

func (t *table) home(k uint64) int { return int(k * 0x9E3779B97F4A7C15 >> t.shift) }

// find returns the slot holding k, or the free slot where k would go.
func (t *table) find(k uint64) int {
	h := t.home(k)
	for t.vals[h] != vacant && t.keys[h] != k {
		h = (h + 1) & (len(t.vals) - 1)
	}
	return h
}

func (t *table) get(k uint64) (int32, bool) {
	v := t.vals[t.find(k)]
	return v, v != vacant
}

// put stores v under k, replacing any earlier value.
func (t *table) put(k uint64, v int32) {
	h := t.find(k)
	if t.vals[h] == vacant {
		if 2*(t.n+1) > len(t.vals) {
			keys, vals := t.keys, t.vals
			t.resize(64 - t.shift + 1)
			for i, old := range vals {
				if old != vacant {
					t.put(keys[i], old)
				}
			}
			h = t.find(k)
		}
		t.n++
		t.keys[h] = k
	}
	t.vals[h] = v
}

// del removes k if present, shifting the rest of its probe run back so
// every remaining key stays reachable from its home slot.
func (t *table) del(k uint64) {
	i := t.find(k)
	if t.vals[i] == vacant {
		return
	}
	t.n--
	mask := len(t.vals) - 1
	for j := (i + 1) & mask; t.vals[j] != vacant; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j]: then the hole is before its probe run.
		if h := t.home(t.keys[j]); (j-h)&mask >= (j-i)&mask {
			t.keys[i], t.vals[i] = t.keys[j], t.vals[j]
			i = j
		}
	}
	t.vals[i] = vacant
}
