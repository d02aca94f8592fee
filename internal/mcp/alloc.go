package mcp

import (
	"fmt"
	"sort"

	"repro/internal/arch"
)

// allocAlign is the allocation granularity. Aligning to the cache line
// size avoids accidental false sharing between unrelated allocations,
// matching what real allocators do for pthread applications.
const allocAlign = 64

// span is a contiguous free range [base, base+size).
type span struct {
	base, size arch.Addr
}

// Allocator is the dynamic memory manager behind the application's malloc
// and free (the paper's brk/mmap/munmap interception, §3.2.1). It manages
// the heap segment of the simulated address space with a first-fit free
// list; block sizes are tracked simulator-side, so no headers pollute the
// simulated heap.
type Allocator struct {
	free      []span // sorted by base
	allocated map[arch.Addr]arch.Addr
	inUse     arch.Addr
	peak      arch.Addr
}

// NewAllocator manages [base, base+size).
func NewAllocator(base, size arch.Addr) *Allocator {
	return &Allocator{
		free:      []span{{base: base, size: size}},
		allocated: make(map[arch.Addr]arch.Addr),
	}
}

// Alloc returns the address of a fresh block of at least n bytes, or an
// error when the heap segment is exhausted.
func (a *Allocator) Alloc(n arch.Addr) (arch.Addr, error) {
	if n == 0 {
		n = 1
	}
	n = (n + allocAlign - 1) &^ arch.Addr(allocAlign-1)
	for i := range a.free {
		if a.free[i].size >= n {
			addr := a.free[i].base
			a.free[i].base += n
			a.free[i].size -= n
			if a.free[i].size == 0 {
				a.free = append(a.free[:i], a.free[i+1:]...)
			}
			a.allocated[addr] = n
			a.inUse += n
			if a.inUse > a.peak {
				a.peak = a.inUse
			}
			return addr, nil
		}
	}
	return 0, fmt.Errorf("mcp: heap exhausted allocating %d bytes (%d in use)", n, a.inUse)
}

// Free releases a block returned by Alloc. Freeing an unknown address is
// an error (application bug surfaced loudly, as a real allocator would).
func (a *Allocator) Free(addr arch.Addr) error {
	n, ok := a.allocated[addr]
	if !ok {
		return fmt.Errorf("mcp: free of unallocated address %#x", uint64(addr))
	}
	delete(a.allocated, addr)
	a.inUse -= n
	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].base >= addr })
	a.free = append(a.free, span{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = span{base: addr, size: n}
	// Coalesce with neighbors.
	if i+1 < len(a.free) && a.free[i].base+a.free[i].size == a.free[i+1].base {
		a.free[i].size += a.free[i+1].size
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	if i > 0 && a.free[i-1].base+a.free[i-1].size == a.free[i].base {
		a.free[i-1].size += a.free[i].size
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
	return nil
}

// InUse returns the bytes currently allocated.
func (a *Allocator) InUse() arch.Addr { return a.inUse }

// Peak returns the high-water mark of allocated bytes.
func (a *Allocator) Peak() arch.Addr { return a.peak }

// freeSpans returns the number of fragments in the free list.
func (a *Allocator) freeSpans() int { return len(a.free) }
