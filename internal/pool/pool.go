// Package pool recycles large zeroed arrays between short-lived owners. A
// campaign builds one simulated core per spec, and most of a core's bytes
// are a few arrays whose size follows the configuration (cache lines, BTB
// entries, the event wheel, the rob): taking them from a sync.Pool when a
// released core left one behind saves allocating and clearing fresh memory
// for every spec, and the garbage collector still reclaims what sits idle.
package pool

import "sync"

// Zeroed returns a pointer to a slice of n zero Ts. It reuses an array from
// p when one large enough is there, clearing it first, and otherwise
// allocates one. Hand the pointer back with p.Put once nothing references
// the array any more; pooling the pointer, not the slice, keeps Put from
// allocating.
func Zeroed[T any](p *sync.Pool, n int) *[]T {
	if s, _ := p.Get().(*[]T); s != nil && cap(*s) >= n {
		*s = (*s)[:n]
		clear(*s)
		return s
	}
	s := make([]T, n)
	return &s
}
