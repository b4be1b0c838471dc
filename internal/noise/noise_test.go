package noise

import (
	"testing"
	"time"

	"parastack/internal/mpi"
	"parastack/internal/sim"
)

func TestProfilesByName(t *testing.T) {
	for _, name := range []string{"tardis", "tianhe2", "stampede"} {
		p, err := Lookup(name)
		if err != nil || p.Name != name {
			t.Fatalf("Lookup(%q) = %q, %v", name, p.Name, err)
		}
	}
	if _, err := Lookup("summit"); err == nil {
		t.Fatal("unknown platform must be an error")
	}
}

func TestSpeedDividesCompute(t *testing.T) {
	eng := sim.NewEngine(1)
	w := mpi.NewWorld(eng, 1, mpi.Latency{})
	p := Profile{Name: "x", Speed: 2, Jitter: 0, NodeImbalance: 0}
	p.Apply(w, eng.Rand(), 1, 0)
	var done sim.Time
	w.Launch(func(r *mpi.Rank) {
		r.Compute(1 * time.Second)
		done = r.Now()
	})
	eng.RunAll()
	if done != 500*time.Millisecond {
		t.Fatalf("compute on 2x machine took %v, want 500ms", done)
	}
}

func TestJitterBounded(t *testing.T) {
	eng := sim.NewEngine(7)
	w := mpi.NewWorld(eng, 1, mpi.Latency{})
	p := Profile{Name: "x", Speed: 1, Jitter: 0.1}
	p.Apply(w, eng.Rand(), 1, 0)
	w.Launch(func(r *mpi.Rank) {
		for i := 0; i < 100; i++ {
			before := r.Now()
			r.Compute(100 * time.Millisecond)
			d := r.Now() - before
			if d < 89*time.Millisecond || d > 111*time.Millisecond {
				t.Fatalf("jittered interval %v outside ±10%% of 100ms", d)
			}
		}
	})
	eng.RunAll()
}

func TestSlowdownWindowAffectsOnlyItsRanksAndWindow(t *testing.T) {
	// Force a slowdown with probability 1 and check the factor applies
	// inside the window to the chosen node's ranks only.
	eng := sim.NewEngine(3)
	w := mpi.NewWorld(eng, 4, mpi.Latency{})
	p := Profile{
		Name: "x", Speed: 1, Jitter: 0,
		SlowdownProb: 1, SlowdownFactor: 10,
		SlowdownMin: 10 * time.Second, SlowdownMax: 10 * time.Second,
	}
	a := p.Apply(w, eng.Rand(), 2, 100*time.Second)
	if !a.HasSlowdown() {
		t.Fatal("slowdown not scheduled with prob 1")
	}
	if a.SlowEnd-a.SlowStart != 10*time.Second {
		t.Fatalf("window length %v, want 10s", a.SlowEnd-a.SlowStart)
	}
	if !a.SlowdownActiveAt(a.SlowStart) || a.SlowdownActiveAt(a.SlowEnd) {
		t.Fatal("SlowdownActiveAt boundaries wrong")
	}

	slowed := map[int]bool{}
	w.Launch(func(r *mpi.Rank) {
		for {
			if r.Now() >= a.SlowStart && r.Now()+20*time.Millisecond <= a.SlowEnd {
				before := r.Now()
				r.Compute(10 * time.Millisecond)
				if r.Now()-before > 50*time.Millisecond {
					slowed[r.ID()] = true
				}
				if r.Now() > a.SlowEnd {
					return
				}
			} else {
				r.Compute(10 * time.Millisecond)
				if r.Now() > a.SlowEnd+time.Second {
					return
				}
			}
		}
	})
	eng.RunAll()
	if len(slowed) == 0 {
		t.Fatal("no rank experienced the slowdown")
	}
	// Affected ranks must be exactly one node (ppn=2): ranks {0,1} or {2,3}.
	for r := range slowed {
		for s := range slowed {
			if r/2 != s/2 {
				t.Fatalf("slowdown spans nodes: ranks %v", slowed)
			}
		}
	}
}

func TestNoSlowdownWhenProbZero(t *testing.T) {
	eng := sim.NewEngine(3)
	w := mpi.NewWorld(eng, 4, mpi.Latency{})
	a := Tardis().Apply(w, eng.Rand(), 2, time.Hour)
	if a.HasSlowdown() {
		t.Fatal("tardis profile scheduled a slowdown")
	}
}
