package devlib

import (
	"testing"
	"time"

	"kubeshare/internal/cuda"
	"kubeshare/internal/devlib/sharing"
	"kubeshare/internal/kube/backoff"
	"kubeshare/internal/obs"
	"kubeshare/internal/sim"
)

// admitRecorder wraps a strategy and records the virtual time of every
// Admit call, so a test can read back the delays a frontend slept between
// attempts.
type admitRecorder struct {
	sharing.Strategy
	env *sim.Env
	at  []time.Duration
}

func (s *admitRecorder) Admit(p *sim.Proc, id string) (sharing.Lease, error) {
	s.at = append(s.at, s.env.Now())
	return s.Strategy.Admit(p, id)
}

// TestReconnectBackoffSequence pins the reconnect schedule: while the
// device's strategy is down, the delays between a frontend's admission
// attempts are exactly the draws of the client's named backoff, in order —
// building the backoff only on the first failure must not shift the seeded
// jitter. Once the strategy resumes, the next attempt re-registers and is
// admitted, and every retry is counted on the device's reconnect counter.
func TestReconnectBackoffSequence(t *testing.T) {
	r, rt := newObsRig()
	rec := &admitRecorder{Strategy: r.strat, env: r.env}
	f, err := NewFrontend(cuda.Open(r.dev, "a"), rec, "a", Share{Request: 0.5, Limit: 1, Memory: 0.5}, r.b.Config())
	if err != nil {
		t.Fatal(err)
	}
	r.strat.Suspend()

	const failures = 6
	draws := backoff.New("devlib/a", reconnectBase, reconnectCap)
	want := make([]time.Duration, failures)
	var resumeAt time.Duration
	for i := range want {
		want[i] = draws.Next()
		resumeAt += want[i]
	}
	// Resume halfway through the last backoff sleep: attempts 0..failures-1
	// find the strategy down, attempt failures is admitted.
	resumeAt -= want[failures-1] / 2
	r.env.After(resumeAt, r.strat.Resume)

	var launchErr error
	launched := false
	r.env.Go("a", func(p *sim.Proc) {
		launchErr = f.LaunchKernel(p, time.Millisecond)
		launched = true
	})
	r.env.Run()

	if !launched || launchErr != nil {
		t.Fatalf("launch across the outage: done=%v err=%v", launched, launchErr)
	}
	if len(rec.at) != failures+1 {
		t.Fatalf("got %d admission attempts at %v, want %d", len(rec.at), rec.at, failures+1)
	}
	for i, d := range want {
		if got := rec.at[i+1] - rec.at[i]; got != d {
			t.Errorf("retry %d slept %v, want backoff draw %v", i+1, got, d)
		}
	}
	if !r.strat.Registered("a") {
		t.Error("frontend did not re-register with the resumed strategy")
	}
	var retries int64
	rt.CounterVec("kubeshare_devlib_reconnect_retries_total", "gpu_uuid").Each(func(_ []obs.Label, v int64) {
		retries += v
	})
	if retries != failures {
		t.Errorf("reconnect counter = %d, want %d", retries, failures)
	}
}
