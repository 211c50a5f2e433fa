package experiments

import (
	"fmt"
	"time"

	"kubeshare/internal/core"
	"kubeshare/internal/devlib"
	"kubeshare/internal/metrics"
	"kubeshare/internal/obs/attr"
	"kubeshare/internal/workload"
)

// Fig19 is the latency-attribution experiment: it replays the Fig 18
// strategy × kernel-mix grid (sized by cfg) with critical-path attribution
// on, reporting where each strategy spends the submit-to-first-kernel-launch
// interval instead of only how much it throughputs. It tabulates
// each arm's phase-level latency budget: the mean per-sharePod duration
// of every attribution phase, over completed chains only (open chains
// are counted, not zero-filled). The token arms pay their grant handoff
// in token_wait, where the overlap strategies show it amortized away —
// the same contrast Fig 18 shows in throughput, here attributed to the
// exact layer that causes it.
func Fig19(cfg Fig18Config) (*metrics.Table, error) {
	cfg = cfg.withDefaults()
	arms := fig18Arms()
	type armOut struct {
		chains int
		open   int
		phases map[attr.Phase]time.Duration
		e2e    time.Duration
	}
	outs, err := runIndexed(len(arms), func(i int) (armOut, error) {
		arm := arms[i]
		jobs := workload.Generate(workload.GeneratorConfig{
			Jobs:             cfg.Jobs,
			MeanInterArrival: cfg.MeanInterArrival,
			DemandMean:       cfg.DemandMean,
			JobDuration:      cfg.JobDuration,
			Mode:             string(arm.mode),
			MemShare:         workload.MemShareSmall,
			ReqKernelMS:      arm.kernelMS,
			Seed:             cfg.Seed,
		})
		res, err := RunSharing(SharingConfig{
			System: KubeShare, Nodes: cfg.Nodes, GPUsPerNode: cfg.GPUsPerNode,
			Jobs:        jobs,
			Devlib:      core.Config{Devlib: devlib.Config{Mode: arm.mode}},
			Attribution: true,
		})
		if err != nil {
			return armOut{}, err
		}
		o := armOut{
			chains: len(res.Attr.Breakdowns),
			open:   len(res.Attr.Open),
			phases: map[attr.Phase]time.Duration{},
		}
		for _, bd := range res.Attr.Breakdowns {
			for ph, d := range bd.Phases {
				o.phases[ph] += d
			}
			o.e2e += bd.EndToEnd
			if got, want := bd.Sum(), bd.EndToEnd; got != want {
				return armOut{}, fmt.Errorf("fig19 %s/%s: %s phases sum to %v, end-to-end %v",
					arm.mode, arm.mix, bd.Key, got, want)
			}
		}
		if o.chains > 0 {
			n := time.Duration(o.chains)
			for ph := range o.phases {
				o.phases[ph] /= n
			}
			o.e2e /= n
		}
		return o, nil
	})
	if err != nil {
		return nil, err
	}
	cols := []string{"strategy", "mix", "chains", "open"}
	for _, ph := range attr.Phases {
		cols = append(cols, string(ph)+"_ms")
	}
	cols = append(cols, "e2e_ms")
	tb := metrics.NewTable("Figure 19: latency attribution by strategy (mean per-sharePod phase budget)", cols...)
	for i, arm := range arms {
		o := outs[i]
		row := []any{string(arm.mode), arm.mix, o.chains, o.open}
		for _, ph := range attr.Phases {
			row = append(row, fmt.Sprintf("%.3f", float64(o.phases[ph])/float64(time.Millisecond)))
		}
		row = append(row, fmt.Sprintf("%.3f", float64(o.e2e)/float64(time.Millisecond)))
		tb.AddRow(row...)
	}
	return tb, nil
}
