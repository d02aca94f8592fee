package ring

import (
	"math/rand"
	"slices"
	"testing"
)

// TestRingMatchesSlice: a random mix of pushes at both ends, pops and
// removals, across wrap-arounds and growth, keeps the ring equal to a
// plain slice doing the same.
func TestRingMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var r Ring[int]
	var model []int
	for op := 0; op < 20000; op++ {
		switch k := rng.Intn(10); {
		case k < 4:
			r.Push(op)
			model = append(model, op)
		case k < 5:
			r.PushFront(op)
			model = slices.Insert(model, 0, op)
		case len(model) == 0:
		case k < 8:
			if got := r.Pop(); got != model[0] {
				t.Fatalf("op %d: Pop = %d, want %d", op, got, model[0])
			}
			model = model[1:]
		default:
			i := rng.Intn(len(model))
			if got := r.Remove(i); got != model[i] {
				t.Fatalf("op %d: Remove(%d) = %d, want %d", op, i, got, model[i])
			}
			model = slices.Delete(model, i, i+1)
		}
		if r.Len() != len(model) {
			t.Fatalf("op %d: Len = %d, want %d", op, r.Len(), len(model))
		}
		for i, v := range model {
			if *r.At(i) != v {
				t.Fatalf("op %d: At(%d) = %d, want %d", op, i, *r.At(i), v)
			}
		}
	}
}

// TestNewDoesNotGrowWithinItsCapacity: a ring from New takes its first
// minCap elements without allocating.
func TestNewDoesNotGrowWithinItsCapacity(t *testing.T) {
	r := New[[]byte]()
	if allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < minCap; i++ {
			r.Push(nil)
		}
		for r.Len() > 0 {
			r.Pop()
		}
	}); allocs != 0 {
		t.Fatalf("%v allocations per fill and drain, want 0", allocs)
	}
}
