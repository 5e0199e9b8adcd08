package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry[int](0)
	if _, ok := r.Get("a"); ok {
		t.Fatal("empty registry returned a value")
	}
	if _, replaced := r.Put("a", 1); replaced {
		t.Fatal("fresh Put reported a replacement")
	}
	if old, replaced := r.Put("a", 2); !replaced || old != 1 {
		t.Fatalf("replacing Put = (%d, %v), want (1, true)", old, replaced)
	}
	if r.Len() != 1 {
		t.Fatalf("len = %d after replacement, want 1", r.Len())
	}
	r.Put("b", 3)
	if names := r.Names(); len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names = %v", names)
	}
	if ok := r.RemoveIf("a", func(v int) bool { return v == 1 }); ok {
		t.Fatal("RemoveIf evicted a non-matching value")
	}
	if ok := r.RemoveIf("a", func(v int) bool { return v == 2 }); !ok {
		t.Fatal("RemoveIf refused a matching value")
	}
	if ok := r.RemoveIf("b", func(v int) bool { return v == 3 }); !ok {
		t.Fatal("RemoveIf(b) refused a matching value")
	}
	if r.Len() != 0 {
		t.Fatalf("len = %d after removals, want 0", r.Len())
	}
	for i := 0; i < 10; i++ {
		r.Put(fmt.Sprintf("m-%d", i), i)
	}
	if got := len(r.Clear()); got != 10 {
		t.Fatalf("Clear returned %d values, want 10", got)
	}
	if r.Len() != 0 || len(r.Names()) != 0 {
		t.Fatalf("len = %d, names = %v after Clear, want empty", r.Len(), r.Names())
	}
}

// TestRegistryWaiterChurn is the O(fleet²) regression test: a fleet-sized
// registration storm must cost each parked waiter exactly one wakeup, not
// one per registration. The old broadcast design woke every waiter on
// every change — 10k registrations against one WaitForAgents call meant
// 10k wakeups and 10k registry rescans; the count waiter design delivers
// one signal per waiter, from the registration that satisfies it.
func TestRegistryWaiterChurn(t *testing.T) {
	const n = 10_000
	r := NewRegistry[int](0)
	done := make(chan struct{})
	defer close(done)

	results := make(chan int, 1)
	go func() { results <- r.WaitCount(n, time.Minute, done) }()
	// Let the waiter park before the storm; a waiter that instead arrives
	// mid-storm takes the fast path and costs zero wakeups, which only
	// makes the assertion easier.
	time.Sleep(10 * time.Millisecond)

	for i := 0; i < n; i++ {
		r.Put(fmt.Sprintf("reg-%05d", i), i)
	}
	if got := <-results; got != n {
		t.Fatalf("WaitCount observed %d registrations, want %d", got, n)
	}
	// One signal per waiter. 10k under the old design; 1 here.
	if w := r.Wakeups(); w > 1 {
		t.Fatalf("%d registrations delivered %d waiter wakeups, want <= 1 — waiters are being woken by unrelated churn", n, w)
	}
}

func TestRegistryWaitCountTimeout(t *testing.T) {
	r := NewRegistry[int](0)
	r.Put("only", 1)
	start := time.Now()
	if got := r.WaitCount(3, 20*time.Millisecond, nil); got != 1 {
		t.Fatalf("timed-out WaitCount = %d, want 1", got)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("WaitCount did not respect its timeout")
	}
	// The timed-out waiter must be unlinked: later registrations have
	// nobody to signal.
	r.Put("second", 2)
	r.Put("third", 3)
	if w := r.Wakeups(); w != 0 {
		t.Fatalf("wakeups = %d after a timed-out waiter, want 0", w)
	}
	// Fast path: threshold already met returns immediately.
	if got := r.WaitCount(2, time.Minute, nil); got != 3 {
		t.Fatalf("satisfied WaitCount = %d, want 3", got)
	}
}

// TestRegistryConcurrent hammers every entry point at once; its value is
// under -race, where it proves the map and waiter locking sound.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry[int](0)
	const workers, perWorker = 8, 500
	done := make(chan struct{})
	defer close(done)
	go r.WaitCount(workers*perWorker/2, time.Minute, done)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				name := fmt.Sprintf("w%d-%03d", w, i)
				r.Put(name, i)
				r.Get(name)
				if i%7 == 0 {
					r.RemoveIf(name, func(int) bool { return true })
					r.Put(name, i)
				}
				if i%31 == 0 {
					r.Len()
					r.Names()
				}
			}
		}(w)
	}
	wg.Wait()
	if r.Len() != workers*perWorker {
		t.Fatalf("len = %d, want %d", r.Len(), workers*perWorker)
	}
}
