package store

import (
	"fmt"
	"testing"

	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/labels"
	"kubeshare/internal/sim"
)

// Layer-benchmark sizes. benchObjects is the resident population the read
// paths and Update cycle over; benchBatch bounds how much a write benchmark
// accumulates (objects or WAL bytes) before it resets outside the timer;
// replayBatch is the WAL length one CrashReplay cycle replays.
const (
	benchObjects = 1024
	benchApps    = 8
	benchBatch   = 4096
	replayBatch  = 100
)

func benchPod(name string, i int) *api.Pod {
	p := pod(name)
	p.Labels = map[string]string{"app": fmt.Sprintf("a%d", i%benchApps), "tier": "web"}
	return p
}

func benchNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("p-%05d", i)
	}
	return out
}

// populated returns a store holding benchObjects labelled pods plus their
// stored copies (whose ResourceVersions an Update cycle must carry).
func populated(b *testing.B, durable bool) (*Store, []api.Object) {
	s := New(sim.NewEnv())
	if durable {
		s.EnableDurability(nil, nil)
	}
	objs := make([]api.Object, benchObjects)
	for i, name := range benchNames(benchObjects) {
		stored, err := s.Create(benchPod(name, i))
		if err != nil {
			b.Fatal(err)
		}
		objs[i] = stored
	}
	return s, objs
}

// cycleUpdates runs b.N whole-object Updates round-robin over objs. With
// durability on, the WAL is checkpointed away every benchBatch records
// outside the timer, so the log never grows past one batch.
func cycleUpdates(b *testing.B, s *Store, objs []api.Object) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%benchBatch == 0 && s.DurabilityEnabled() {
			b.StopTimer()
			s.Checkpoint()
			b.StartTimer()
		}
		j := i % len(objs)
		stored, err := s.Update(objs[j])
		if err != nil {
			b.Fatal(err)
		}
		objs[j] = stored
	}
}

// BenchmarkLayerStore is the store + WAL layer of the per-layer suite: the
// host cost of each store boundary a sharePod's control-plane traffic
// crosses, one op per call (Create, Update, ListSelector, Scan), per
// WAL-logged mutation (WALAppend) or per replayed WAL record
// (CrashReplay). allocs/op is deterministic for every sub-benchmark except
// CrashReplay, which replays whole batches of replayBatch records and so
// rounds b.N up to the next multiple of replayBatch.
func BenchmarkLayerStore(b *testing.B) {
	b.Run("Create", func(b *testing.B) {
		names := benchNames(benchBatch)
		tmpl := benchPod("", 0)
		s := New(sim.NewEnv())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i > 0 && i%benchBatch == 0 {
				b.StopTimer()
				s = New(sim.NewEnv())
				b.StartTimer()
			}
			tmpl.Name = names[i%benchBatch]
			if _, err := s.Create(tmpl); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Update", func(b *testing.B) {
		s, objs := populated(b, false)
		cycleUpdates(b, s, objs)
	})
	b.Run("ListSelector", func(b *testing.B) {
		s, _ := populated(b, false)
		sel := labels.SelectorFromMap(map[string]string{"app": "a3", "tier": "web"})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := len(s.ListSelector("Pod", sel)); got != benchObjects/benchApps {
				b.Fatalf("selector matched %d, want %d", got, benchObjects/benchApps)
			}
		}
	})
	b.Run("Scan", func(b *testing.B) {
		s, _ := populated(b, false)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			seen := 0
			s.Scan("Pod", func(api.Object) bool { seen++; return true })
			if seen != benchObjects {
				b.Fatalf("scan visited %d, want %d", seen, benchObjects)
			}
		}
	})
	b.Run("WALAppend", func(b *testing.B) {
		s, objs := populated(b, true)
		cycleUpdates(b, s, objs)
	})
	b.Run("CrashReplay", func(b *testing.B) {
		// An empty checkpoint plus replayBatch Create records: every crash
		// replays the whole log (a clean log is never truncated), so the
		// timed work is teardown + replay, amortized over replayBatch.
		s := New(sim.NewEnv())
		s.EnableDurability(nil, nil)
		for i, name := range benchNames(replayBatch) {
			if _, err := s.Create(benchPod(name, i)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for replayed := 0; replayed < b.N; {
			st, err := s.Crash()
			if err != nil {
				b.Fatal(err)
			}
			if st.Replayed != replayBatch {
				b.Fatalf("replayed %d records, want %d", st.Replayed, replayBatch)
			}
			replayed += st.Replayed
		}
	})
}
