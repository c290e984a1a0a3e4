package cluster

import (
	"bytes"
	"encoding/binary"

	"clite/internal/profile"
)

// classTable interns node states as assess sees them: two nodes share
// a class id exactly when they have the same packed mix and the same
// Demand (a disabled layer leaves its part at the empty value), so
// assess judges each class once per pass. A node's class moves at the
// sites that change its state (join, leave, FailNode). Ids no node
// holds any more are reused, so the table never has more classes than
// the scheduler has nodes, and a warm table interns without
// allocating: index is an open-addressed set of live ids, and a reused
// id keeps its key's storage.
type classTable struct {
	index []int32  // 1 + live class id by key hash, 0 empty; a power of two, at least twice the nodes
	keys  [][]byte // keys[id] is class id's state key
	refs  []int32  // refs[id] counts the nodes in class id; 0 marks a free id
	free  []int32  // free ids, reused last-freed first
	buf   []byte   // state-key scratch
}

// newClassTable returns the table of a scheduler whose nodes all start
// empty, in class 0 under key empty.
func newClassTable(nodes int, empty []byte) classTable {
	size := 2
	for size < 2*nodes {
		size *= 2
	}
	t := classTable{index: make([]int32, size), keys: [][]byte{empty}, refs: []int32{int32(nodes)}}
	t.index[t.find(empty)] = 1
	return t
}

// home is the index slot key hashes to (FNV-1a).
func (t *classTable) home(key []byte) int {
	h := uint32(2166136261)
	for _, b := range key {
		h = (h ^ uint32(b)) * 16777619
	}
	return int(h) & (len(t.index) - 1)
}

// find returns the index slot holding key's class, or the empty slot
// where it would go.
func (t *classTable) find(key []byte) int {
	mask := len(t.index) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		if e := t.index[i]; e == 0 || bytes.Equal(t.keys[e-1], key) {
			return i
		}
	}
}

// remove empties index slot i, shifting later members of its probe run
// back so every live key stays reachable from its home.
func (t *classTable) remove(i int) {
	mask := len(t.index) - 1
	for j := (i + 1) & mask; t.index[j] != 0; j = (j + 1) & mask {
		// Move j's key into the hole unless its home lies cyclically
		// in (i, j], where the hole does not cut its probe path.
		if h := t.home(t.keys[t.index[j]-1]); (j-h)&mask >= (j-i)&mask {
			t.index[i] = t.index[j]
			i = j
		}
	}
	t.index[i] = 0
}

// appendState appends a node state's class key to dst: the demand's
// solo feasibility and per-resource need, then the mix. The need
// fields are self-delimiting and fixed in number, so the mix is the
// rest.
func (s *Scheduler) appendState(dst []byte, mix profile.Mix, d *profile.Demand) []byte {
	feasible := byte(0)
	if d.Feasible() {
		feasible = 1
	}
	dst = append(dst, feasible)
	for r := range s.topo {
		dst = binary.AppendVarint(dst, int64(d.Need(r)))
	}
	return append(dst, mix...)
}

// reclass moves n to the class of its current state. The old class is
// released first, so a state only this node held frees its id for the
// new one.
func (s *Scheduler) reclass(n *node) {
	t := &s.classes
	if t.refs[n.class]--; t.refs[n.class] == 0 {
		t.remove(t.find(t.keys[n.class]))
		t.free = append(t.free, n.class)
	}
	t.buf = s.appendState(t.buf[:0], n.mix, &n.demand)
	i := t.find(t.buf)
	if t.index[i] == 0 {
		var id int32
		if k := len(t.free); k > 0 {
			id, t.free = t.free[k-1], t.free[:k-1]
		} else {
			id = int32(len(t.keys))
			t.keys = append(t.keys, nil)
			t.refs = append(t.refs, 0)
		}
		t.keys[id] = append(t.keys[id][:0], t.buf...)
		t.index[i] = id + 1
	}
	id := t.index[i] - 1
	t.refs[id]++
	n.class = id
}
