package store

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/labels"
	"kubeshare/internal/sim"
)

// expectedEv is one entry of a worker's per-key op log: the event a
// single-lock store would deliver for the mutation. objRV is the delivered
// object's ResourceVersion (for Deleted, the pre-delete version).
type expectedEv struct {
	typ      EventType
	objRV    int64
	selMatch bool // labels matched app=a at delivery time
}

// TestConcurrentChurnWatchEquivalence is the store's concurrency property
// test: several goroutines churn disjoint key ranges across two kinds while
// filtered watches are live, under -race. Because each key has exactly one
// writer, the per-key event sequence a single-lock store delivers is fully
// determined by that writer's op log — so every watcher (per-kind,
// selector-filtered, and generic-prefix) must observe exactly that sequence
// per key, with store-wide revisions strictly increasing along it,
// regardless of how the writers interleave.
func TestConcurrentChurnWatchEquivalence(t *testing.T) {
	env := sim.NewEnv()
	s := New(env)

	const (
		workers    = 8
		keysPer    = 12
		opsPer     = 400
		watchedSel = "a"
	)

	// Live watches registered before the churn: per-kind, selector-filtered
	// (Pod app=a), and a generic-prefix watch crossing both kinds.
	podQ := s.Watch("Pod/", false)
	nodeQ := s.Watch("Node/", false)
	selQ := s.WatchFiltered("Pod/", WatchOptions{
		Selector: labels.SelectorFromMap(map[string]string{"app": watchedSel}),
	}, false)
	allQ := s.Watch("", false)

	logs := make([]map[string][]expectedEv, workers) // worker → key → op log
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		logs[w] = make(map[string][]expectedEv)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			kind := "Pod"
			if w%2 == 1 {
				kind = "Node"
			}
			make_ := func(name string, lbls map[string]string) api.Object {
				if kind == "Pod" {
					p := pod(name)
					p.Labels = lbls
					return p
				}
				return &api.Node{ObjectMeta: api.ObjectMeta{Name: name, Labels: lbls}}
			}
			randLabels := func() map[string]string {
				out := map[string]string{}
				if rng.Intn(2) == 0 {
					out["app"] = []string{"a", "b"}[rng.Intn(2)]
				}
				if rng.Intn(2) == 0 {
					out["tier"] = []string{"x", "y"}[rng.Intn(2)]
				}
				return out
			}
			curLabels := map[string]map[string]string{} // key → last stored labels
			for i := 0; i < opsPer; i++ {
				name := fmt.Sprintf("w%d-%02d", w, rng.Intn(keysPer))
				key := kind + "/" + name
				_, exists := curLabels[name]
				switch op := rng.Intn(5); {
				case op == 0 && !exists: // create
					lbls := randLabels()
					stored, err := s.Create(make_(name, lbls))
					if err != nil {
						t.Errorf("create %s: %v", key, err)
						return
					}
					curLabels[name] = lbls
					logs[w][key] = append(logs[w][key], expectedEv{
						Added, stored.GetMeta().ResourceVersion, lbls["app"] == watchedSel})
				case (op == 1 || op == 2) && exists: // label update
					cur, err := s.Get(kind, name)
					if err != nil {
						t.Errorf("get %s: %v", key, err)
						return
					}
					lbls := randLabels()
					cur.GetMeta().Labels = lbls
					stored, err := s.Update(cur)
					if err != nil {
						t.Errorf("update %s: %v", key, err)
						return
					}
					curLabels[name] = lbls
					logs[w][key] = append(logs[w][key], expectedEv{
						Modified, stored.GetMeta().ResourceVersion, lbls["app"] == watchedSel})
				case op == 3 && exists: // status update (labels preserved)
					cur, err := s.Get(kind, name)
					if err != nil {
						t.Errorf("get %s: %v", key, err)
						return
					}
					if p, ok := cur.(*api.Pod); ok {
						p.Status.Phase = api.PodRunning
					} else {
						cur.(*api.Node).Status.Ready = true
					}
					stored, err := s.UpdateStatus(cur)
					if err != nil {
						t.Errorf("update status %s: %v", key, err)
						return
					}
					logs[w][key] = append(logs[w][key], expectedEv{
						Modified, stored.GetMeta().ResourceVersion,
						curLabels[name]["app"] == watchedSel})
				case op == 4 && exists: // delete
					prior := logs[w][key][len(logs[w][key])-1]
					if err := s.Delete(kind, name); err != nil {
						t.Errorf("delete %s: %v", key, err)
						return
					}
					logs[w][key] = append(logs[w][key], expectedEv{
						Deleted, prior.objRV, curLabels[name]["app"] == watchedSel})
					delete(curLabels, name)
				}
			}
		}(w)
	}
	wg.Wait()

	// Merge the per-worker logs into per-key expected sequences.
	want := map[string][]expectedEv{}
	totalOps := 0
	for _, wl := range logs {
		for key, seq := range wl {
			want[key] = seq // keys are worker-disjoint, no merge needed
			totalOps += len(seq)
		}
	}
	if got := s.Revision(); got != int64(totalOps) {
		t.Fatalf("revision %d after %d mutations", got, totalOps)
	}

	drain := func(q *sim.Queue[Event]) map[string][]Event {
		out := map[string][]Event{}
		for {
			ev, ok := q.TryGet()
			if !ok {
				return out
			}
			key := api.Key(ev.Object)
			out[key] = append(out[key], ev)
		}
	}
	checkSeq := func(label, key string, got []Event, want []expectedEv) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s watch, key %s: %d events, want %d", label, key, len(got), len(want))
		}
		lastRev := int64(0)
		for i, ev := range got {
			if ev.Type != want[i].typ || ev.Object.GetMeta().ResourceVersion != want[i].objRV {
				t.Fatalf("%s watch, key %s, event %d: got (%s, rv=%d), want (%s, rv=%d)",
					label, key, i, ev.Type, ev.Object.GetMeta().ResourceVersion,
					want[i].typ, want[i].objRV)
			}
			if ev.Rev <= lastRev {
				t.Fatalf("%s watch, key %s, event %d: rev %d not increasing past %d",
					label, key, i, ev.Rev, lastRev)
			}
			lastRev = ev.Rev
		}
	}

	// Per-kind watches: every key's sequence equals the single-writer log.
	podEvs, nodeEvs, allEvs := drain(podQ), drain(nodeQ), drain(allQ)
	for key, seq := range want {
		var got []Event
		if key[:3] == "Pod" {
			got = podEvs[key]
		} else {
			got = nodeEvs[key]
		}
		checkSeq("kind", key, got, seq)
		checkSeq("generic-prefix", key, allEvs[key], seq)
	}
	// And nothing beyond the expected keys was delivered.
	if got, wantN := len(podEvs)+len(nodeEvs), len(want); got != wantN {
		t.Fatalf("kind watches saw %d keys, want %d", got, wantN)
	}

	// Selector watch: exactly the matching subsequence of each Pod key.
	selEvs := drain(selQ)
	for key, seq := range want {
		if key[:3] != "Pod" {
			continue
		}
		var filtered []expectedEv
		for _, e := range seq {
			if e.selMatch {
				filtered = append(filtered, e)
			}
		}
		checkSeq("selector", key, selEvs[key], filtered)
	}

	// Folding the per-kind streams reproduces the final store state.
	for _, kind := range []string{"Pod", "Node"} {
		evs := podEvs
		if kind == "Node" {
			evs = nodeEvs
		}
		view := map[string]int64{}
		for key, seq := range evs {
			last := seq[len(seq)-1]
			if last.Type != Deleted {
				view[key] = last.Object.GetMeta().ResourceVersion
			}
		}
		final := s.List(kind + "/")
		if len(final) != len(view) {
			t.Fatalf("%s: folded view has %d objects, list %d", kind, len(view), len(final))
		}
		var names []string
		for _, obj := range final {
			key := api.Key(obj)
			if view[key] != obj.GetMeta().ResourceVersion {
				t.Fatalf("%s: folded %s at rv=%d, stored %d",
					kind, key, view[key], obj.GetMeta().ResourceVersion)
			}
			names = append(names, obj.GetMeta().Name)
		}
		if !sort.StringsAreSorted(names) {
			t.Fatalf("%s list unsorted under concurrent churn: %v", kind, names)
		}
	}
}

// TestConcurrentReaders checks readers on one kind run against a writer on
// another goroutine without torn results: list/scan/selector answers on the
// read side always reflect a committed prefix of the writer's op sequence.
func TestConcurrentReaders(t *testing.T) {
	env := sim.NewEnv()
	s := New(env)
	for i := 0; i < 64; i++ {
		p := pod(fmt.Sprintf("stable-%02d", i))
		p.Labels = map[string]string{"app": "a"}
		if _, err := s.Create(p); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer churns Nodes (another kind)
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := fmt.Sprintf("n-%02d", i%32)
			n := &api.Node{ObjectMeta: api.ObjectMeta{Name: name}}
			if _, err := s.Create(n); err != nil {
				s.Delete("Node", name)
			}
		}
	}()
	sel := labels.SelectorFromMap(map[string]string{"app": "a"})
	for r := 0; r < 2000; r++ {
		if got := s.Count("Pod"); got != 64 {
			t.Fatalf("count=%d, want 64", got)
		}
		if got := len(s.ListSelector("Pod", sel)); got != 64 {
			t.Fatalf("selector matched %d, want 64", got)
		}
		seen := 0
		s.Scan("Pod", func(api.Object) bool { seen++; return true })
		if seen != 64 {
			t.Fatalf("scan visited %d, want 64", seen)
		}
	}
	close(stop)
	wg.Wait()
}
