package sharing

import (
	"errors"
	"math"
	"testing"
	"time"

	"kubeshare/internal/sim"
)

// TestStrategyContract runs one script over every strategy: the lifecycle
// surface the frontend and DevMgr recovery rely on must behave the same
// whichever policy serves the device.
func TestStrategyContract(t *testing.T) {
	const quota = 100 * time.Millisecond
	for _, tc := range []struct {
		mode Mode
		new  func(env *sim.Env) Strategy
	}{
		{ModeToken, func(env *sim.Env) Strategy {
			return NewToken(env, "gpu-0", quota, 10*time.Second, LowestUsageFirst, nil)
		}},
		{ModeMPS, func(env *sim.Env) Strategy { return NewMPS(env, "gpu-0", nil) }},
		{ModeReplica, func(env *sim.Env) Strategy { return NewReplica(env, "gpu-0", 1, quota, nil) }},
	} {
		t.Run(string(tc.mode), func(t *testing.T) {
			env := sim.NewEnv()
			s := tc.new(env)
			if s.Mode() != tc.mode {
				t.Fatalf("Mode() = %q", s.Mode())
			}
			res := Resources{Request: 0.4, Limit: 1}
			for _, id := range []string{"a", "b"} {
				if err := s.Register(id, res); err != nil {
					t.Fatalf("register %s: %v", id, err)
				}
			}
			if s.Clients() != 2 || !s.Registered("a") || s.Registered("ghost") {
				t.Fatalf("clients %d after registering a and b", s.Clients())
			}

			// Register, Admit, and a stale Release is ignored.
			env.Go("a", func(p *sim.Proc) {
				l1, err := s.Admit(p, "a")
				if err != nil || !l1.Valid(env.Now()) {
					t.Errorf("admit a: %+v, %v", l1, err)
					return
				}
				s.Release("a", l1)
				l2, err := s.Admit(p, "a")
				if err != nil || l2.Seq <= l1.Seq {
					t.Errorf("re-admit a: %+v after %+v, %v", l2, l1, err)
					return
				}
				s.Release("a", l1) // stale: must not reclaim l2
				if s.Gated() && s.Stats().Holder != "a" {
					t.Errorf("stale release reclaimed the live lease: holder %q", s.Stats().Holder)
				}
			})

			// Suspend fails the pending admit and every new one with ErrDown.
			var pendingErr error
			pendingDone := false
			env.Go("b", func(p *sim.Proc) {
				p.Sleep(time.Millisecond)
				_, pendingErr = s.Admit(p, "b")
				pendingDone = true
			})
			env.Go("crash", func(p *sim.Proc) {
				p.Sleep(2 * time.Millisecond)
				if s.Gated() && (pendingDone || s.Waiting("b") == 0) {
					t.Error("b's admit should be pending behind a's turn")
				}
				s.Suspend()
				p.Sleep(time.Millisecond)
				if !pendingDone {
					t.Error("pending admit stranded across Suspend")
				} else if s.Gated() && !errors.Is(pendingErr, ErrDown) {
					t.Errorf("pending admit after Suspend: %v, want ErrDown", pendingErr)
				}
				if _, err := s.Admit(p, "a"); !errors.Is(err, ErrDown) {
					t.Errorf("admit while down: %v, want ErrDown", err)
				}
				if err := s.Register("c", res); !errors.Is(err, ErrDown) {
					t.Errorf("register while down: %v, want ErrDown", err)
				}
				if !s.Down() || s.Registered("a") || s.Clients() != 0 {
					t.Error("Suspend must drop registrations and report Down")
				}

				// Resume, then a re-register admits again.
				s.Resume()
				if s.Down() {
					t.Error("Down after Resume")
				}
				if _, err := s.Admit(p, "a"); err == nil {
					t.Error("admit before re-register succeeded")
				}
				if err := s.Register("a", res); err != nil {
					t.Errorf("re-register after resume: %v", err)
				}
				if l, err := s.Admit(p, "a"); err != nil || !l.Valid(env.Now()) {
					t.Errorf("admit after resume: %+v, %v", l, err)
				}

				// Unregister clears Registered and Clients.
				s.Unregister("a")
				if s.Registered("a") || s.Clients() != 0 {
					t.Errorf("after Unregister: registered=%v clients=%d", s.Registered("a"), s.Clients())
				}
			})
			env.Run()
		})
	}
}

// TestResidualPolicyAblation pits one big-kernel client against two
// small-kernel ones, all far above their requests. With three tenants there
// are always two waiters to arbitrate between: lowest-usage-first equalizes
// *time shares* (≈1/3 each), while FIFO rotates *turns*, handing the
// big-kernel client most of the device (20/(20+5+5) ≈ 0.67).
func TestResidualPolicyAblation(t *testing.T) {
	run := func(policy ResidualPolicy) (big, small float64) {
		env := sim.NewEnv()
		tok := NewToken(env, "gpu-0", 100*time.Millisecond, 10*time.Second, policy, nil)
		for _, c := range []struct {
			id     string
			kernel time.Duration
		}{{"big", 20 * time.Millisecond}, {"small1", 5 * time.Millisecond}, {"small2", 5 * time.Millisecond}} {
			id, kernel := c.id, c.kernel
			if err := tok.Register(id, Resources{Request: 0.05, Limit: 1}); err != nil {
				t.Fatal(err)
			}
			env.Go(id, func(p *sim.Proc) {
				for !p.Killed() {
					l, err := tok.Admit(p, id)
					if err != nil {
						return
					}
					p.Sleep(kernel)
					tok.Release(id, l)
				}
			})
		}
		env.RunUntil(30 * time.Second)
		return tok.UsageRate("big"), tok.UsageRate("small1")
	}
	bigLU, smallLU := run(LowestUsageFirst)
	if math.Abs(bigLU-smallLU) > 0.12 {
		t.Fatalf("lowest-usage policy unbalanced: big %.3f vs small %.3f", bigLU, smallLU)
	}
	bigFIFO, smallFIFO := run(FIFOResidual)
	if bigFIFO < smallFIFO+0.25 {
		t.Fatalf("FIFO policy should favour the big-kernel client: %.3f vs %.3f", bigFIFO, smallFIFO)
	}
}

// TestWorkingSetLargerThanDeviceRejected: a working set may fill the device
// but never exceed it — no eviction could make it resident.
func TestWorkingSetLargerThanDeviceRejected(t *testing.T) {
	tok := NewToken(sim.NewEnv(), "gpu-0", 0, 0, LowestUsageFirst, nil)
	if err := tok.SetVirtualUsage("a", 1000); err == nil {
		t.Fatal("virtual usage accepted before EnableSwap")
	}
	tok.EnableSwap(1000, 1<<40)
	if err := tok.SetVirtualUsage("a", 1000); err != nil {
		t.Fatalf("working set at capacity: %v", err)
	}
	if err := tok.SetVirtualUsage("a", 2000); err == nil {
		t.Fatal("working set beyond device capacity accepted")
	}
}

// TestSwapEvictsLeastRecentlyUsed: making a set resident on a full device
// swaps out the least recently used other set (not the lowest id), and the
// transfer time and traffic cover both directions.
func TestSwapEvictsLeastRecentlyUsed(t *testing.T) {
	env := sim.NewEnv()
	tok := NewToken(env, "gpu-0", 0, 0, LowestUsageFirst, nil)
	tok.EnableSwap(1000, 1000) // 1000 B/s: one byte per millisecond
	for _, id := range []string{"a", "b", "c"} {
		if err := tok.Register(id, Resources{Request: 0.3, Limit: 1}); err != nil {
			t.Fatal(err)
		}
		if err := tok.SetVirtualUsage(id, 400); err != nil {
			t.Fatal(err)
		}
	}
	env.Go("t", func(p *sim.Proc) {
		for _, id := range []string{"b", "a", "c"} { // b is least recently used
			start := env.Now()
			if err := tok.EnsureResident(p, id); err != nil {
				t.Errorf("ensure %s: %v", id, err)
			}
			moved := 400 * time.Millisecond
			if id == "c" {
				moved *= 2 // b out, c in
			}
			if got := env.Now() - start; got != moved {
				t.Errorf("ensure %s took %v, want %v", id, got, moved)
			}
		}
	})
	env.Run()
	if tok.ResidentBytes("b") != 0 || tok.ResidentBytes("a") != 400 || tok.ResidentBytes("c") != 400 {
		t.Fatalf("resident a/b/c = %d/%d/%d, want 400/0/400",
			tok.ResidentBytes("a"), tok.ResidentBytes("b"), tok.ResidentBytes("c"))
	}
	if got := tok.Stats().SwappedBytes; got != 1600 {
		t.Fatalf("swapped %d bytes, want 1600 (three loads plus one eviction)", got)
	}
	tok.Unregister("a")
	if tok.ResidentBytes("a") != 0 {
		t.Fatal("residency survived Unregister")
	}
}
