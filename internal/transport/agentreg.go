package transport

import (
	"maps"
	"slices"
	"sync"
	"time"
)

// Registry is the vendor's agent index: one name → value map under one
// mutex. Every RPC dispatch resolves a name through it.
//
// Waiting costs one wakeup per waiter. A WaitCount call parks on a count
// threshold and is signalled by the registration that reaches it, so a
// 100k-agent registration storm wakes a parked WaitForAgents once, not
// once per registration.
type Registry[V any] struct {
	mu      sync.Mutex
	m       map[string]V
	waiters []countWaiter
	// wakeups counts waiter signals delivered; the churn test pins it.
	wakeups int64
}

// countWaiter is one parked WaitCount call: closed exactly once, by the
// registration that brings the count to n (or by nobody — the waiter also
// watches its own timeout and the caller's done channel).
type countWaiter struct {
	n  int
	ch chan struct{}
}

// NewRegistry returns an empty registry. The int argument is unused: it
// was the shard count, and bench/seams.go still passes one.
func NewRegistry[V any](int) *Registry[V] {
	return &Registry[V]{m: make(map[string]V)}
}

// Len returns the number of registered names.
func (r *Registry[V]) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.m)
}

// Get returns the value registered under name.
func (r *Registry[V]) Get(name string) (V, bool) {
	r.mu.Lock()
	v, ok := r.m[name]
	r.mu.Unlock()
	return v, ok
}

// Put registers v under name, returning the displaced value if the name
// was already taken. A replacement does not change the count (and wakes
// nobody); a fresh registration wakes exactly the count waiters whose
// threshold it reaches.
func (r *Registry[V]) Put(name string, v V) (old V, replaced bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	old, replaced = r.m[name]
	r.m[name] = v
	// Signal and unlink every waiter the count now satisfies.
	r.waiters = slices.DeleteFunc(r.waiters, func(w countWaiter) bool {
		if w.n > len(r.m) {
			return false
		}
		close(w.ch)
		r.wakeups++
		return true
	})
	return old, replaced
}

// RemoveIf unregisters name only if the stored value satisfies same — the
// conditional eviction a dying connection uses so it cannot evict the
// fresh channel that replaced it.
func (r *Registry[V]) RemoveIf(name string, same func(V) bool) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.m[name]; ok && same(v) {
		delete(r.m, name)
		return true
	}
	return false
}

// Names returns all registered names, sorted.
func (r *Registry[V]) Names() []string {
	r.mu.Lock()
	out := slices.Collect(maps.Keys(r.m))
	r.mu.Unlock()
	slices.Sort(out)
	return out
}

// Clear empties the registry, returning every removed value (so a closing
// server can tear the connections down outside the lock).
func (r *Registry[V]) Clear() []V {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := slices.Collect(maps.Values(r.m))
	clear(r.m)
	return out
}

// WaitCount blocks until at least n names are registered, the timeout
// elapses, or done is closed; it returns the count it observed. The
// waiter is woken exactly once, by the registration that reaches its
// threshold — never by unrelated registry churn.
func (r *Registry[V]) WaitCount(n int, timeout time.Duration, done <-chan struct{}) int {
	r.mu.Lock()
	if len(r.m) >= n {
		defer r.mu.Unlock()
		return len(r.m)
	}
	ch := make(chan struct{})
	r.waiters = append(r.waiters, countWaiter{n: n, ch: ch})
	r.mu.Unlock()

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-ch:
	case <-done:
	case <-timer.C:
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.waiters = slices.DeleteFunc(r.waiters, func(w countWaiter) bool { return w.ch == ch })
	return len(r.m)
}
