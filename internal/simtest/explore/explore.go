// Package explore is the explicit-state search that the protocol
// explorers share, in the spirit of Murphi or TLC: from an initial state
// it takes every enabled event in every reachable state, breadth first,
// and hashes an encoding of each state so that each is expanded once. A
// model supplies its states, their events and its properties; the search
// stops at the first violation and replays the shortest path to it.
package explore

import (
	"fmt"
	"hash/maphash"
	"slices"
)

// State is one state of a model.
type State[S any] interface {
	// Clone returns a copy that an event may change.
	Clone() S
	// Key appends an encoding of the state to b, equal for two states
	// exactly when their futures are.
	Key(b []byte) []byte
	// Next calls event for every enabled event, in an order that depends
	// on the state alone. label names the event for a trace; apply
	// carries it out on a clone, and panics to report a violation.
	Next(event func(label func() string, apply func(S)))
	// Check returns the property the state breaks, or "". final is set
	// when no event is enabled in it.
	Check(final bool) string
}

// Result is the outcome of a search.
type Result struct {
	States, Transitions int
	Err                 string   // the first violation found, or ""
	Trace               []string // the shortest path to it
}

// Search explores every state reachable from init. A state is kept only
// until it has been expanded; what stays is its parent and its index
// among the parent's events, from which the trace to a violation is
// replayed with labels.
func Search[S State[S]](init S) (res Result) {
	type node struct{ parent, k int32 }
	seed, seen := maphash.MakeSeed(), map[uint64]bool{}
	key := init.Key(nil)
	seen[maphash.Bytes(seed, key)] = true
	nodes, queue := []node{{parent: -1}}, []S{init}
	fail := func(i, k int, err string) Result {
		ks := []int{k}
		for ; nodes[i].parent >= 0; i = int(nodes[i].parent) {
			ks = append(ks, int(nodes[i].k))
		}
		slices.Reverse(ks)
		res.States, res.Err, res.Trace = len(seen), err, replay(init, ks)
		return res
	}
	for i := 0; i < len(queue); i++ {
		s := queue[i]
		queue[i] = *new(S)
		k, bad, err := 0, -1, ""
		s.Next(func(_ func() string, apply func(S)) {
			if k++; bad >= 0 {
				return
			}
			res.Transitions++
			c := s.Clone()
			if err = catch(func() { apply(c) }); err == "" {
				key = c.Key(key[:0])
				if h := maphash.Bytes(seed, key); !seen[h] {
					seen[h] = true
					if err = c.Check(false); err == "" {
						nodes = append(nodes, node{parent: int32(i), k: int32(k - 1)})
						queue = append(queue, c)
					}
				}
			}
			if err != "" {
				bad = k - 1
			}
		})
		if bad >= 0 {
			return fail(i, bad, err)
		}
		if k == 0 {
			if err := s.Check(true); err != "" {
				return fail(i, -1, err)
			}
		}
	}
	res.States = len(seen)
	return res
}

// replay labels the path that takes, from init, the events numbered ks; a
// negative number ends it.
func replay[S State[S]](init S, ks []int) (out []string) {
	s := init
	for _, want := range ks {
		k, next := 0, s
		s.Next(func(label func() string, apply func(S)) {
			if k == want {
				out = append(out, label())
				next = s.Clone()
				catch(func() { apply(next) })
			}
			k++
		})
		s = next
	}
	return out
}

// catch runs f and returns what it panicked with, or "".
func catch(f func()) (p string) {
	defer func() {
		if r := recover(); r != nil {
			p = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}
