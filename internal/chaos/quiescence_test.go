package chaos

import (
	"strings"
	"testing"
	"time"

	"kubeshare/internal/core"
	"kubeshare/internal/core/schedfw"
	"kubeshare/internal/devlib/sharing"
	"kubeshare/internal/kube"
	"kubeshare/internal/sim"
)

// TestVerifyQuiescenceAuditsEveryStrategy leaks one client on a device per
// sharing strategy of an otherwise idle cluster: the audit must report each
// leak, not only the token strategy's.
func TestVerifyQuiescenceAuditsEveryStrategy(t *testing.T) {
	env := sim.NewEnv()
	c, err := kube.NewCluster(env, kube.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	ks, err := schedfw.Install(c, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	env.RunUntil(time.Second)
	if bad := VerifyQuiescence(c, ks); len(bad) != 0 {
		t.Fatalf("idle cluster not quiescent: %v", bad)
	}

	modes := []sharing.Mode{sharing.ModeToken, sharing.ModeMPS, sharing.ModeReplica}
	backend := ks.Backends[c.Nodes[0].Name]
	for i, mode := range modes {
		strat, err := backend.StrategyFor(c.Nodes[0].GPUs[i].UUID(), mode)
		if err != nil {
			t.Fatal(err)
		}
		if err := strat.Register("ghost", sharing.Resources{Request: 0.1, Limit: 0.1}); err != nil {
			t.Fatal(err)
		}
	}
	bad := VerifyQuiescence(c, ks)
	if len(bad) != len(modes) {
		t.Fatalf("violations %v, want one leaked client per strategy", bad)
	}
	for _, mode := range modes {
		found := false
		for _, err := range bad {
			msg := err.Error()
			if strings.HasPrefix(msg, string(mode)+" strategy") && strings.Contains(msg, "leaked 1 clients") {
				found = true
			}
		}
		if !found {
			t.Errorf("no leak reported for the %s strategy in %v", mode, bad)
		}
	}
}
