package sim

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from the current kernel")

// goldenScenario drives a small but representative simulation — timers,
// sleeps, queue handoffs, events with timeouts, resource contention, kills —
// and returns the full trace. The recorded golden was produced by the
// pre-optimization kernel (container/heap + slice shifts), so matching it
// proves the rewritten kernel preserves event ordering exactly.
func goldenScenario() string {
	var b strings.Builder
	env := NewEnv()
	env.SetTracer(func(at time.Duration, format string, args ...any) {
		fmt.Fprintf(&b, "%v "+format+"\n", append([]any{at}, args...)...)
	})

	q := NewQueue[int](env)
	res := NewResource(env, 2)
	done := NewEvent(env)

	env.After(5*time.Millisecond, func() { env.tracef("timer-5ms") })
	stopped := env.After(7*time.Millisecond, func() { env.tracef("timer-7ms (must not fire)") })
	env.At(3*time.Millisecond, func() {
		env.tracef("timer-3ms stops timer-7ms: %v", stopped.Stop())
	})

	for i := 0; i < 3; i++ {
		i := i
		env.Go(fmt.Sprintf("producer-%d", i), func(p *Proc) {
			for j := 0; j < 4; j++ {
				p.Sleep(time.Duration(i+1) * time.Millisecond)
				q.Put(i*10 + j)
				p.Tracef("put %d", i*10+j)
			}
		})
	}
	env.Go("consumer", func(p *Proc) {
		for k := 0; k < 12; k++ {
			v, ok := q.Get(p)
			p.Tracef("got %d ok=%v", v, ok)
		}
		done.Trigger("all-consumed")
	})
	env.Go("timeout-getter", func(p *Proc) {
		for {
			v, ok := q.GetTimeout(p, 500*time.Microsecond)
			p.Tracef("timeout-get %d ok=%v", v, ok)
			if ok {
				return
			}
			p.Sleep(2500 * time.Microsecond)
		}
	})
	for _, name := range []string{"worker-a", "worker-b", "worker-c"} {
		name := name
		env.Go(name, func(p *Proc) {
			res.Acquire(p, 1)
			p.Tracef("acquired")
			p.Sleep(4 * time.Millisecond)
			res.Release(1)
			p.Tracef("released")
		})
	}
	victim := env.Go("victim", func(p *Proc) {
		p.Sleep(time.Hour)
	})
	env.Go("killer", func(p *Proc) {
		p.Sleep(6 * time.Millisecond)
		victim.Kill(nil)
		p.Tracef("killed victim")
	})
	env.Go("waiter", func(p *Proc) {
		v, ok := p.WaitTimeout(done, 2*time.Millisecond)
		p.Tracef("wait-1 %v %v", v, ok)
		v = p.Wait(done)
		p.Tracef("wait-2 %v", v)
	})
	env.Run()
	fmt.Fprintf(&b, "end now=%v pending=%d live=%d\n", env.Now(), env.Pending(), env.Live())
	return b.String()
}

// TestKernelGoldenTrace locks the event ordering of the kernel against the
// trace recorded from the pre-optimization implementation.
func TestKernelGoldenTrace(t *testing.T) {
	got := goldenScenario()
	path := filepath.Join("testdata", "kernel_trace.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to record): %v", err)
	}
	if got != string(want) {
		t.Fatalf("kernel trace diverged from the recorded golden.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	// And the scenario itself must be deterministic run-to-run.
	if again := goldenScenario(); again != got {
		t.Fatalf("same-process rerun diverged:\n--- first ---\n%s\n--- second ---\n%s", got, again)
	}
}
