package cluster

import (
	"bytes"
	"encoding/binary"

	"clite/internal/profile"
	"clite/internal/resource"
)

// classTable interns live node states as classify sees them: two
// nodes share a class id exactly when they have the same packed mix
// and the same Demand (a disabled layer leaves its part at the empty
// value), so classify judges each class once per pass and counts it
// once per member. A node's class moves at the sites that change its
// state (join, leave), and FailNode takes the node out of the table.
// Ids no node holds any more are reused, so the table never has more
// classes than the scheduler has nodes, and a warm table interns
// without allocating: index is an open-addressed set of live ids, and
// a reused id keeps its key's storage.
type classTable struct {
	index  []int32      // 1 + live class id by key hash, 0 empty; a power of two, at least twice the nodes
	keys   [][]byte     // keys[id] is class id's state key
	states []classState // states[id] is the state class id stands for
	refs   []int32      // refs[id] counts the nodes in class id; 0 marks a free id
	free   []int32      // free ids, reused last-freed first
	buf    []byte       // state-key scratch
}

// classState is what classify judges a node by: its packed mix (while
// the profile cache is on) and its demand (while the pre-filter is on).
// A class keeps its own copy, so it can be judged without a member.
type classState struct {
	mix    profile.Mix    // packed canonical mix of requests
	demand profile.Demand // summed solo minima of requests
}

// copyFrom makes c a copy of o, reusing c's storage.
func (c *classState) copyFrom(o *classState) {
	c.mix = append(c.mix[:0], o.mix...)
	c.demand.CopyFrom(&o.demand)
}

// sameState reports whether two states are the same, the test classify
// applies, independently of the key encoding.
func sameState(a, b *classState, topo resource.Topology) bool {
	if string(a.mix) != string(b.mix) || a.demand.Feasible() != b.demand.Feasible() {
		return false
	}
	for r := range topo {
		if a.demand.Need(r) != b.demand.Need(r) {
			return false
		}
	}
	return true
}

// newClassTable returns the table of a scheduler whose nodes all start
// empty, in class 0 under key empty.
func newClassTable(nodes int, empty []byte) classTable {
	size := 2
	for size < 2*nodes {
		size *= 2
	}
	t := classTable{index: make([]int32, size), keys: [][]byte{empty}, states: make([]classState, 1), refs: []int32{int32(nodes)}}
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

// release drops one member from class id, freeing the id when it was
// the last.
func (t *classTable) release(id int32) {
	if t.refs[id]--; t.refs[id] == 0 {
		t.remove(t.find(t.keys[id]))
		t.free = append(t.free, id)
	}
}

// reclass moves n to the class of its current state. The old class is
// released first, so a state only this node held frees its id for the
// new one.
func (s *Scheduler) reclass(n *node) {
	t := &s.classes
	t.release(n.class)
	t.buf = s.appendState(t.buf[:0], n.mix, &n.demand)
	i := t.find(t.buf)
	if t.index[i] == 0 {
		var id int32
		if k := len(t.free); k > 0 {
			id, t.free = t.free[k-1], t.free[:k-1]
		} else {
			id = int32(len(t.keys))
			t.keys = append(t.keys, nil)
			t.states = append(t.states, classState{})
			t.refs = append(t.refs, 0)
		}
		t.keys[id] = append(t.keys[id][:0], t.buf...)
		t.states[id].copyFrom(&n.classState)
		t.index[i] = id + 1
	}
	id := t.index[i] - 1
	t.refs[id]++
	n.class = id
}
