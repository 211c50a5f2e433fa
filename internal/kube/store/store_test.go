package store

import (
	"errors"
	"testing"
	"testing/quick"

	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/labels"
	"kubeshare/internal/sim"
)

func pod(name string) *api.Pod {
	return &api.Pod{
		ObjectMeta: api.ObjectMeta{Name: name},
		Spec:       api.PodSpec{Containers: []api.Container{{Name: "c", Image: "i"}}},
	}
}

func TestCreateAssignsMetadata(t *testing.T) {
	env := sim.NewEnv()
	s := New(env)
	stored, err := s.Create(pod("a"))
	if err != nil {
		t.Fatal(err)
	}
	m := stored.GetMeta()
	if m.UID == "" || m.ResourceVersion == 0 {
		t.Fatalf("meta not filled: %+v", m)
	}
}

func TestCreateDuplicateFails(t *testing.T) {
	env := sim.NewEnv()
	s := New(env)
	if _, err := s.Create(pod("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(pod("a")); err == nil {
		t.Fatal("duplicate create succeeded")
	}
}

func TestGetReturnsCopy(t *testing.T) {
	env := sim.NewEnv()
	s := New(env)
	s.Create(pod("a"))
	g1, _ := s.Get("Pod", "a")
	g1.(*api.Pod).Status.Phase = api.PodRunning
	g2, _ := s.Get("Pod", "a")
	if g2.(*api.Pod).Status.Phase == api.PodRunning {
		t.Fatal("Get returns aliased object")
	}
}

func TestUpdateConflictOnStaleVersion(t *testing.T) {
	env := sim.NewEnv()
	s := New(env)
	stored, _ := s.Create(pod("a"))
	fresh := stored.DeepCopyObject().(*api.Pod)
	stale := stored.DeepCopyObject().(*api.Pod)
	fresh.Status.Phase = api.PodRunning
	if _, err := s.Update(fresh); err != nil {
		t.Fatal(err)
	}
	stale.Status.Phase = api.PodFailed
	if _, err := s.Update(stale); !errors.Is(err, ErrConflict) {
		t.Fatalf("stale update err = %v, want conflict", err)
	}
}

func TestUpdatePreservesUIDAndCreationTime(t *testing.T) {
	env := sim.NewEnv()
	s := New(env)
	stored, _ := s.Create(pod("a"))
	orig := stored.GetMeta()
	upd := stored.DeepCopyObject().(*api.Pod)
	upd.UID = "spoofed"
	out, err := s.Update(upd)
	if err != nil {
		t.Fatal(err)
	}
	if out.GetMeta().UID != orig.UID {
		t.Fatal("UID not preserved across update")
	}
}

func TestDeleteAndNotFound(t *testing.T) {
	env := sim.NewEnv()
	s := New(env)
	s.Create(pod("a"))
	if err := s.Delete("Pod", "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("Pod", "a"); err == nil {
		t.Fatal("deleted object still readable")
	}
	if err := s.Delete("Pod", "a"); err == nil {
		t.Fatal("double delete succeeded")
	}
}

func TestListSortedAndPrefixed(t *testing.T) {
	env := sim.NewEnv()
	s := New(env)
	s.Create(pod("b"))
	s.Create(pod("a"))
	s.Create(&api.Node{ObjectMeta: api.ObjectMeta{Name: "n1"}})
	pods := s.List("Pod/")
	if len(pods) != 2 || pods[0].GetMeta().Name != "a" || pods[1].GetMeta().Name != "b" {
		t.Fatalf("list = %v", pods)
	}
}

func TestWatchReplayAndLiveEvents(t *testing.T) {
	env := sim.NewEnv()
	s := New(env)
	s.Create(pod("pre"))
	q := s.Watch("Pod/", true)
	var events []Event
	env.Go("w", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			ev, ok := q.Get(p)
			if !ok {
				return
			}
			events = append(events, ev)
		}
	})
	env.Go("mutator", func(p *sim.Proc) {
		p.Sleep(1)
		s.Create(pod("live"))
		stored, _ := s.Get("Pod", "live")
		stored.(*api.Pod).Status.Phase = api.PodRunning
		s.Update(stored)
		s.Delete("Pod", "live")
	})
	env.Run()
	want := []EventType{Added, Added, Modified, Deleted}
	if len(events) != 4 {
		t.Fatalf("events = %d", len(events))
	}
	for i, w := range want {
		if events[i].Type != w {
			t.Fatalf("event %d = %s, want %s", i, events[i].Type, w)
		}
	}
	if events[0].Object.GetMeta().Name != "pre" {
		t.Fatal("replay missing pre-existing object")
	}
}

func TestWatchPrefixFiltering(t *testing.T) {
	env := sim.NewEnv()
	s := New(env)
	q := s.Watch("Node/", false)
	var got []Event
	env.Go("w", func(p *sim.Proc) {
		for {
			ev, ok := q.Get(p)
			if !ok {
				return
			}
			got = append(got, ev)
		}
	})
	env.Go("m", func(p *sim.Proc) {
		s.Create(pod("a"))
		s.Create(&api.Node{ObjectMeta: api.ObjectMeta{Name: "n1"}})
		s.StopWatch(q)
	})
	env.Run()
	if len(got) != 1 || got[0].Object.Kind() != "Node" {
		t.Fatalf("got = %v", got)
	}
}

func TestWatchDeliversCopies(t *testing.T) {
	env := sim.NewEnv()
	s := New(env)
	q := s.Watch("Pod/", false)
	env.Go("m", func(p *sim.Proc) {
		s.Create(pod("a"))
	})
	env.Go("w", func(p *sim.Proc) {
		ev, _ := q.Get(p)
		ev.Object.(*api.Pod).Status.Phase = api.PodFailed
		stored, _ := s.Get("Pod", "a")
		if stored.(*api.Pod).Status.Phase == api.PodFailed {
			t.Error("watch event aliases stored object")
		}
	})
	env.Run()
}

func TestStopWatchClosesQueue(t *testing.T) {
	env := sim.NewEnv()
	s := New(env)
	q := s.Watch("Pod/", false)
	var closed bool
	env.Go("w", func(p *sim.Proc) {
		_, ok := q.Get(p)
		closed = !ok
	})
	env.Go("m", func(p *sim.Proc) { s.StopWatch(q) })
	env.Run()
	if !closed {
		t.Fatal("watch queue not closed")
	}
	s.Create(pod("a")) // must not panic (watcher removed)
}

// TestSetSelectorWatchAgreesWithList: a labels.Set with an empty value must
// select the same objects through a filtered watch (Matches) as through
// ListSelector (the Requirements index) — an object without the key is in
// neither.
func TestSetSelectorWatchAgreesWithList(t *testing.T) {
	env := sim.NewEnv()
	s := New(env)
	sel := labels.Set{"tier": ""}
	q := s.WatchFiltered("Pod/", WatchOptions{Selector: sel}, false)
	for name, lbls := range map[string]map[string]string{
		"no-tier":    {"app": "a"},
		"empty-tier": {"tier": ""},
		"web-tier":   {"tier": "web"},
	} {
		p := pod(name)
		p.Labels = lbls
		if _, err := s.Create(p); err != nil {
			t.Fatal(err)
		}
	}
	var listed, watched []string
	for _, obj := range s.ListSelector("Pod", sel) {
		listed = append(listed, obj.GetMeta().Name)
	}
	for ev, ok := q.TryGet(); ok; ev, ok = q.TryGet() {
		watched = append(watched, ev.Object.GetMeta().Name)
	}
	if len(listed) != 1 || listed[0] != "empty-tier" {
		t.Fatalf("ListSelector(%v) = %v, want [empty-tier]", sel, listed)
	}
	if len(watched) != 1 || watched[0] != "empty-tier" {
		t.Fatalf("WatchFiltered(%v) delivered %v, ListSelector returned %v", sel, watched, listed)
	}
}

// Property: resource versions strictly increase over any mutation sequence.
func TestPropertyResourceVersionMonotonic(t *testing.T) {
	f := func(ops []uint8) bool {
		env := sim.NewEnv()
		s := New(env)
		last := int64(0)
		names := []string{"a", "b", "c"}
		for _, op := range ops {
			name := names[int(op)%len(names)]
			switch (op / 3) % 3 {
			case 0:
				if stored, err := s.Create(pod(name)); err == nil {
					if v := stored.GetMeta().ResourceVersion; v <= last {
						return false
					} else {
						last = v
					}
				}
			case 1:
				if cur, err := s.Get("Pod", name); err == nil {
					if stored, err := s.Update(cur); err == nil {
						if v := stored.GetMeta().ResourceVersion; v <= last {
							return false
						} else {
							last = v
						}
					}
				}
			case 2:
				s.Delete("Pod", name)
			}
			if s.Revision() < last {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
