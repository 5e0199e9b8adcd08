package deploy

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pkgmgr"
	"repro/internal/report"
)

func TestBudgetNilIsUnlimited(t *testing.T) {
	var b *Budget
	for i := 0; i < 100; i++ {
		if err := b.Acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		b.Release()
	}
	if b.Cap() != 0 || b.InFlight() != 0 || b.HighWater() != 0 {
		t.Fatal("nil budget reported non-zero accounting")
	}
	if NewBudget(0) != nil || NewBudget(-1) != nil {
		t.Fatal("NewBudget(<=0) must return the unlimited nil budget")
	}
}

func TestBudgetBlocksAtCap(t *testing.T) {
	b := NewBudget(2)
	if err := b.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := b.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := b.Acquire(ctx); err == nil {
		t.Fatal("third Acquire on a 2-slot budget succeeded")
	}
	b.Release()
	if err := b.Acquire(context.Background()); err != nil {
		t.Fatalf("Acquire after Release: %v", err)
	}
	b.Release()
	b.Release()
	if got := b.InFlight(); got != 0 {
		t.Fatalf("in-flight = %d after releases, want 0", got)
	}
	if got := b.HighWater(); got != 2 {
		t.Fatalf("high water = %d, want 2", got)
	}
}

// peak tracks how many callers are inside at once and the most ever seen.
type peak struct{ cur, max atomic.Int64 }

func (p *peak) enter() {
	cur := p.cur.Add(1)
	for {
		max := p.max.Load()
		if cur <= max || p.max.CompareAndSwap(max, cur) {
			return
		}
	}
}

func (p *peak) leave() { p.cur.Add(-1) }

// meteredNode counts how many member RPCs — and, separately, how many
// integrations — run concurrently across ALL instances.
type meteredNode struct {
	name               string
	rpcs, integrating  *peak
	tested, integrated *atomic.Int64
}

func (n *meteredNode) Name() string { return n.name }

func (n *meteredNode) TestUpgrade(_ context.Context, up *pkgmgr.Upgrade) (*report.Report, error) {
	n.rpcs.enter()
	defer n.rpcs.leave()
	time.Sleep(time.Millisecond)
	n.tested.Add(1)
	return &report.Report{UpgradeID: up.ID, Machine: n.name, Success: true}, nil
}

func (n *meteredNode) Integrate(context.Context, *pkgmgr.Upgrade) error {
	n.rpcs.enter()
	defer n.rpcs.leave()
	n.integrating.enter()
	defer n.integrating.leave()
	time.Sleep(time.Millisecond)
	n.integrated.Add(1)
	return nil
}

// TestDeployRespectsBudget runs a wide wave through a controller whose
// pool is far wider than the worker budget and asserts the nodes never
// observe more concurrent RPCs than the budget allows — tests and
// integrations alike, now that both run on the pool.
func TestDeployRespectsBudget(t *testing.T) {
	var rpcs, integrating peak
	var tested, integrated atomic.Int64
	const members = 32
	budget := NewBudget(3)
	cl := &Cluster{ID: "budget-c0", Distance: 1}
	for i := 0; i < members; i++ {
		n := &meteredNode{name: fmt.Sprintf("budget-%02d", i),
			rpcs: &rpcs, integrating: &integrating, tested: &tested, integrated: &integrated}
		if i == 0 {
			cl.Representatives = append(cl.Representatives, n)
		} else {
			cl.Others = append(cl.Others, n)
		}
	}
	ctl := NewController(report.New(), nil)
	ctl.Parallelism = 16
	ctl.Budget = budget
	up := &pkgmgr.Upgrade{ID: "v-budget", Pkg: &pkgmgr.Package{Name: "app", Version: "2"}}
	out, err := ctl.Deploy(context.Background(), PolicyBalanced, up, []*Cluster{cl})
	if err != nil {
		t.Fatal(err)
	}
	if out.Integrated() != members {
		t.Fatalf("integrated %d/%d", out.Integrated(), members)
	}
	if got := rpcs.max.Load(); got > 3 {
		t.Fatalf("nodes observed %d concurrent RPCs, budget allows 3", got)
	}
	// Integrations overlap (they share the pool) and the cap binds them.
	if got := integrating.max.Load(); got < 2 || got > 3 {
		t.Fatalf("nodes observed %d concurrent integrations, want 2..3 (pooled, budget 3)", got)
	}
	if got := budget.HighWater(); got > 3 {
		t.Fatalf("budget high water = %d, cap 3", got)
	}
	if got := budget.InFlight(); got != 0 {
		t.Fatalf("budget in-flight = %d after deploy, want 0", got)
	}
	if tested.Load() == 0 || integrated.Load() != members {
		t.Fatalf("tested %d / integrated %d, want >0 / %d", tested.Load(), integrated.Load(), members)
	}
}
