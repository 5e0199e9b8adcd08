package transport

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The agent registry is the hottest structure in the vendor: every RPC
// dispatch resolves a name through it, and a fleet-wide registration storm
// hits it from every accept goroutine at once. A single mutex around one
// map serializes all of that; Registry spreads names across N independent
// shards (FNV-1a of the name, masked) so lookups and registrations on
// different shards never contend.
//
// Waiting is the other scaling hazard. The old design kept one broadcast
// channel that was closed and replaced on every registry change, so during
// a 100k-agent registration storm every waiter woke 100k times and
// re-scanned the registry each time — O(fleet²) work for a single
// WaitForAgents call. Registry instead wakes a waiter exactly once: count
// waiters publish a threshold and are signalled by the registration that
// reaches it (count-based, no rescans).

// fnv1aOffset/fnv1aPrime are the FNV-1a 64-bit parameters; the hash is
// inlined so shard picking allocates nothing.
const (
	fnv1aOffset = 14695981039346656037
	fnv1aPrime  = 1099511628211
)

func fnv1a(name string) uint64 {
	h := uint64(fnv1aOffset)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= fnv1aPrime
	}
	return h
}

// normalizeShards rounds n up to a power of two (the shard pick is a mask),
// bounded so a small fleet on a big box doesn't pay for hundreds of empty
// maps. n <= 0 selects the default: 4x GOMAXPROCS, enough shards that
// concurrently running goroutines rarely collide.
func normalizeShards(n int) int {
	if n <= 0 {
		n = 4 * runtime.GOMAXPROCS(0)
	}
	p := 1
	for p < n && p < 512 {
		p <<= 1
	}
	return p
}

// regShard is one lock-domain of the registry: the names that hash here.
type regShard[V any] struct {
	mu sync.Mutex
	m  map[string]V
	// pad keeps neighbouring shards' mutexes off one cache line, which is
	// the difference between sharding and false sharing.
	_ [64]byte
}

// countWaiter is one parked WaitCount call: closed exactly once, by the
// registration that brings the count to n (or by nobody — the waiter also
// watches its own timeout and the caller's done channel).
type countWaiter struct {
	n  int
	ch chan struct{}
}

// Registry is a hash-sharded name → value map with single-wakeup waiting.
// The zero value is not usable; call NewRegistry.
type Registry[V any] struct {
	shards []regShard[V]
	mask   uint64

	count atomic.Int64

	// minWait caches the smallest outstanding count-waiter threshold
	// (MaxInt64 when none), so the registration fast path is one atomic
	// load — the waiter list and its lock are touched only by the
	// registration that actually satisfies somebody.
	minWait atomic.Int64
	wmu     sync.Mutex
	waiters []countWaiter // sorted ascending by threshold

	// wakeups counts waiter signals delivered. A WaitForAgents over an
	// n-agent registration storm must cost O(1) wakeups, not O(n) — the
	// churn regression test pins this down.
	wakeups atomic.Int64
}

// NewRegistry builds a registry with the given shard count; shards <= 0
// selects the GOMAXPROCS-derived default. The count is rounded up to a
// power of two.
func NewRegistry[V any](shards int) *Registry[V] {
	n := normalizeShards(shards)
	r := &Registry[V]{
		shards: make([]regShard[V], n),
		mask:   uint64(n - 1),
	}
	for i := range r.shards {
		r.shards[i].m = make(map[string]V)
	}
	r.minWait.Store(math.MaxInt64)
	return r
}

func (r *Registry[V]) shard(name string) *regShard[V] {
	return &r.shards[fnv1a(name)&r.mask]
}

// Shards returns the shard count.
func (r *Registry[V]) Shards() int { return len(r.shards) }

// Len returns the number of registered names. Put counts a name after
// releasing its shard, so a removal racing in between can briefly take the
// count below zero; Len reads that as empty.
func (r *Registry[V]) Len() int { return max(int(r.count.Load()), 0) }

// ShardSizes returns the per-shard entry counts, for metrics and for
// eyeballing hash spread.
func (r *Registry[V]) ShardSizes() []int {
	out := make([]int, len(r.shards))
	for i := range r.shards {
		r.shards[i].mu.Lock()
		out[i] = len(r.shards[i].m)
		r.shards[i].mu.Unlock()
	}
	return out
}

// Get returns the value registered under name.
func (r *Registry[V]) Get(name string) (V, bool) {
	sh := r.shard(name)
	sh.mu.Lock()
	v, ok := sh.m[name]
	sh.mu.Unlock()
	return v, ok
}

// Put registers v under name, returning the displaced value if the name
// was already taken. A replacement does not change the count (and wakes
// nobody); a fresh registration increments it and wakes exactly the count
// waiters whose threshold it reaches.
func (r *Registry[V]) Put(name string, v V) (old V, replaced bool) {
	sh := r.shard(name)
	sh.mu.Lock()
	old, replaced = sh.m[name]
	sh.m[name] = v
	sh.mu.Unlock()
	if !replaced {
		n := r.count.Add(1)
		if n >= r.minWait.Load() {
			r.wakeCount(n)
		}
	}
	return old, replaced
}

// wakeCount pops and signals every count waiter whose threshold the new
// count satisfies.
func (r *Registry[V]) wakeCount(n int64) {
	r.wmu.Lock()
	i := 0
	for i < len(r.waiters) && int64(r.waiters[i].n) <= n {
		r.wakeups.Add(1)
		close(r.waiters[i].ch)
		i++
	}
	if i > 0 {
		r.waiters = append(r.waiters[:0], r.waiters[i:]...)
	}
	if len(r.waiters) == 0 {
		r.minWait.Store(math.MaxInt64)
	} else {
		r.minWait.Store(int64(r.waiters[0].n))
	}
	r.wmu.Unlock()
}

// Remove unregisters name, returning what was stored.
func (r *Registry[V]) Remove(name string) (V, bool) {
	sh := r.shard(name)
	sh.mu.Lock()
	v, ok := sh.m[name]
	if ok {
		delete(sh.m, name)
	}
	sh.mu.Unlock()
	if ok {
		r.count.Add(-1)
	}
	return v, ok
}

// RemoveIf unregisters name only if the stored value satisfies same — the
// conditional eviction a dying connection uses so it cannot evict the
// fresh channel that replaced it.
func (r *Registry[V]) RemoveIf(name string, same func(V) bool) bool {
	sh := r.shard(name)
	sh.mu.Lock()
	v, ok := sh.m[name]
	if ok && same(v) {
		delete(sh.m, name)
		sh.mu.Unlock()
		r.count.Add(-1)
		return true
	}
	sh.mu.Unlock()
	return false
}

// Names returns all registered names, sorted.
func (r *Registry[V]) Names() []string {
	out := make([]string, 0, r.Len())
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		for n := range sh.m {
			out = append(out, n)
		}
		sh.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// Clear empties the registry, returning every removed value (so a closing
// server can tear the connections down outside any shard lock).
func (r *Registry[V]) Clear() []V {
	var out []V
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		for n, v := range sh.m {
			out = append(out, v)
			delete(sh.m, n)
		}
		sh.mu.Unlock()
	}
	r.count.Add(-int64(len(out)))
	return out
}

// WaitCount blocks until at least n names are registered, the timeout
// elapses, or done is closed; it returns the count it observed. The
// waiter is woken exactly once, by the registration that reaches its
// threshold — never by unrelated registry churn.
func (r *Registry[V]) WaitCount(n int, timeout time.Duration, done <-chan struct{}) int {
	if got := r.count.Load(); got >= int64(n) {
		return int(got)
	}
	ch := make(chan struct{})
	r.wmu.Lock()
	// Publish the threshold, then re-check the count while still holding
	// the lock. Put increments the count before loading minWait, so any
	// registration this re-check misses is one that will see the
	// published threshold and signal — no wakeup can fall between.
	idx := sort.Search(len(r.waiters), func(i int) bool { return r.waiters[i].n > n })
	r.waiters = append(r.waiters, countWaiter{})
	copy(r.waiters[idx+1:], r.waiters[idx:])
	r.waiters[idx] = countWaiter{n: n, ch: ch}
	r.minWait.Store(int64(r.waiters[0].n))
	if got := r.count.Load(); got >= int64(n) {
		r.removeCountWaiter(ch)
		r.wmu.Unlock()
		return int(got)
	}
	r.wmu.Unlock()

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-ch:
		return int(r.count.Load())
	case <-done:
	case <-timer.C:
	}
	r.wmu.Lock()
	r.removeCountWaiter(ch)
	r.wmu.Unlock()
	return int(r.count.Load())
}

// removeCountWaiter unlinks ch (if still parked) and refreshes minWait;
// callers hold wmu.
func (r *Registry[V]) removeCountWaiter(ch chan struct{}) {
	for i := range r.waiters {
		if r.waiters[i].ch == ch {
			r.waiters = append(r.waiters[:i], r.waiters[i+1:]...)
			break
		}
	}
	if len(r.waiters) == 0 {
		r.minWait.Store(math.MaxInt64)
	} else {
		r.minWait.Store(int64(r.waiters[0].n))
	}
}
