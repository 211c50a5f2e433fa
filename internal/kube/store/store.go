// Package store implements the etcd analogue backing the API server: a
// versioned object store with optimistic concurrency and prefix watches.
// Each mutation bumps a store-wide revision; every object carries the
// revision of its last write as its ResourceVersion.
//
// Objects are kept in per-kind buckets with a lazily sorted name index and
// a label posting index (key → value → names), so lists, selector queries
// and watch fan-out cost O(matching objects) instead of O(all keys).
// Watches can be filtered server-side by kind, exact name and label
// selector — subscribers never receive events they would discard.
//
// # Concurrency
//
// One mutex guards the whole store, and every public method takes it once.
// Revision assignment, the WAL append, watch fan-out and the
// resumable-watch history therefore commit as one step, so the history,
// the log and every subscriber see mutations in exact revision order. The
// simulation drives the store from one event queue and the serve endpoints
// serialize their own handlers, so the lock is uncontended in practice; it
// keeps the store safe for any caller that does share it across
// goroutines. The lock is not re-entrant: callbacks the store runs under it
// (Scan's fn, the WAL-append hook) must not call back into the store.
//
// Calls are goroutine-safe, with one rule: the virtual clock must not
// advance while mutators run off the simulation goroutine (Create reads
// env.Now).
package store

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"kubeshare/internal/kube/api"
	"kubeshare/internal/kube/labels"
	"kubeshare/internal/sim"
)

// Mutation errors.
var (
	// ErrNotFound is returned for reads and writes of missing keys.
	ErrNotFound = errors.New("store: object not found")
	// ErrExists is returned by Create when the key is already present.
	ErrExists = errors.New("store: object already exists")
	// ErrConflict is returned by Update when the caller's ResourceVersion is
	// stale (optimistic-concurrency failure).
	ErrConflict = errors.New("store: resource version conflict")
	// ErrGone is returned by WatchFilteredFrom when the requested revision
	// has been compacted out of the event history; the subscriber must
	// relist and start a fresh watch (the 410 Gone of the kube watch
	// protocol).
	ErrGone = errors.New("store: requested revision compacted")
)

// DefaultHistoryCap bounds the event history kept for resumable watches.
const DefaultHistoryCap = 4096

// EventType classifies watch events.
type EventType string

// Watch event types.
const (
	Added    EventType = "ADDED"
	Modified EventType = "MODIFIED"
	Deleted  EventType = "DELETED"
)

// Event is one watch notification. Object is a deep copy owned by the
// receiver; for Deleted events it is the last stored state. Rev is the
// store-wide revision the mutation committed at — for Added/Modified it
// equals the object's ResourceVersion; for Deleted it is the revision the
// deletion consumed (the object copy keeps its pre-delete version).
type Event struct {
	Type   EventType
	Object api.Object
	Rev    int64
}

// WatchOptions narrows a watch subscription server-side. The zero value
// subscribes to everything under the watch's prefix.
type WatchOptions struct {
	// Name restricts delivery to the object with this exact name.
	Name string
	// Selector restricts delivery to objects whose labels match. For
	// Deleted events the last stored labels are consulted. Nil matches all.
	Selector labels.Selector
}

// matches reports whether an object with the given name and labels passes
// the filter.
func (o WatchOptions) matches(name string, lbls map[string]string) bool {
	if o.Name != "" && o.Name != name {
		return false
	}
	if o.Selector != nil && !o.Selector.Matches(lbls) {
		return false
	}
	return true
}

// watcher fans events out to one subscriber. Watchers registered with a
// plain "<Kind>/" prefix live in the per-kind bucket and are only visited
// for mutations of that kind; others are matched by generic prefix.
type watcher struct {
	prefix string
	opts   WatchOptions
	queue  *sim.Queue[Event]
}

// bucket holds one kind's objects plus its indexes.
type bucket struct {
	objs map[string]api.Object // name → stored object
	// sorted caches the names in order; rebuilt lazily after create/delete.
	sorted []string
	dirty  bool
	// byLabel is the posting index: label key → value → set of names.
	byLabel map[string]map[string]map[string]struct{}
	// watchers subscribed to exactly this kind.
	watchers []*watcher
}

func newBucket() *bucket {
	return &bucket{
		objs:    make(map[string]api.Object),
		byLabel: make(map[string]map[string]map[string]struct{}),
	}
}

// names returns the bucket's object names sorted, rebuilding the cache if
// stale.
func (b *bucket) names() []string {
	if b.dirty {
		b.sorted = b.sorted[:0]
		for n := range b.objs {
			b.sorted = append(b.sorted, n)
		}
		sort.Strings(b.sorted)
		b.dirty = false
	}
	return b.sorted
}

func (b *bucket) indexLabels(name string, lbls map[string]string) {
	for k, v := range lbls {
		vals, ok := b.byLabel[k]
		if !ok {
			vals = make(map[string]map[string]struct{})
			b.byLabel[k] = vals
		}
		set, ok := vals[v]
		if !ok {
			set = make(map[string]struct{})
			vals[v] = set
		}
		set[name] = struct{}{}
	}
}

func (b *bucket) unindexLabels(name string, lbls map[string]string) {
	for k, v := range lbls {
		if vals, ok := b.byLabel[k]; ok {
			if set, ok := vals[v]; ok {
				delete(set, name)
				if len(set) == 0 {
					delete(vals, v)
				}
			}
			if len(vals) == 0 {
				delete(b.byLabel, k)
			}
		}
	}
}

// Store is the versioned object store.
type Store struct {
	env *sim.Env

	// mu guards every field below; each public method holds it throughout.
	mu      sync.Mutex
	rev     int64
	nextUID int64
	kinds   map[string]*bucket

	// global holds watchers whose prefix is not a plain "<Kind>/" — they are
	// matched by string prefix against every mutation.
	global []*watcher

	// history is the bounded mutation log backing resumable watches. Live
	// entries are history[histHead:]; the head advances instead of shifting,
	// with an amortized compaction once the dead prefix dominates. Entries
	// own their Object copies.
	history    []Event
	histHead   int
	histCap    int
	compactRev int64 // revision of the newest event dropped from history

	// Durability (see wal.go): dur is the simulated durable medium — nil
	// until EnableDurability, leaving the WAL append path a single nil
	// check. epoch counts crash/restore cycles; the hooks surface WAL and
	// checkpoint activity to the telemetry layer without the store
	// importing obs.
	dur          *Durable
	epoch        int64
	onWALAppend  func(records int)
	onCheckpoint func(bytes int)
}

// New returns an empty store.
func New(env *sim.Env) *Store {
	return &Store{env: env, kinds: make(map[string]*bucket), histCap: DefaultHistoryCap}
}

// Revision returns the store-wide revision of the last mutation.
func (s *Store) Revision() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rev
}

// SetHistoryCap bounds the resumable-watch event history to n entries
// (default DefaultHistoryCap). Shrinking compacts immediately; resumes from
// before the compaction point return ErrGone. n <= 0 disables history, so
// every resume relists.
func (s *Store) SetHistoryCap(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.histCap = n
	s.trimHistory()
}

// record appends a mutation to the history, taking ownership of ev.Object.
func (s *Store) record(ev Event) {
	if s.histCap <= 0 {
		if ev.Rev > s.compactRev {
			s.compactRev = ev.Rev
		}
		return
	}
	s.history = append(s.history, ev)
	s.trimHistory()
}

func (s *Store) trimHistory() {
	for len(s.history)-s.histHead > s.histCap && s.histHead < len(s.history) {
		if rv := s.history[s.histHead].Rev; rv > s.compactRev {
			s.compactRev = rv
		}
		s.history[s.histHead] = Event{}
		s.histHead++
	}
	if s.histHead > len(s.history)/2 && s.histHead > 64 {
		live := copy(s.history, s.history[s.histHead:])
		for i := live; i < len(s.history); i++ {
			s.history[i] = Event{}
		}
		s.history = s.history[:live]
		s.histHead = 0
	}
}

// bucketOf returns the kind's bucket, creating it if needed.
func (s *Store) bucketOf(kind string) *bucket {
	b, ok := s.kinds[kind]
	if !ok {
		b = newBucket()
		s.kinds[kind] = b
	}
	return b
}

// kindNames returns all kind names sorted (for generic-prefix scans).
func (s *Store) kindNames() []string {
	out := make([]string, 0, len(s.kinds))
	for k := range s.kinds {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Create inserts obj, assigning UID, CreationTime and ResourceVersion. The
// stored copy is returned.
func (s *Store) Create(obj api.Object) (api.Object, error) {
	kind := obj.Kind()
	name := obj.GetMeta().Name
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.bucketOf(kind)
	if _, ok := b.objs[name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrExists, api.Key(obj))
	}
	stored := obj.DeepCopyObject()
	meta := stored.GetMeta()
	s.rev++
	s.nextUID++
	rv := s.rev
	meta.ResourceVersion = rv
	meta.UID = fmt.Sprintf("uid-%d", s.nextUID)
	meta.CreationTime = s.env.Now()
	b.objs[name] = stored
	b.dirty = true
	b.indexLabels(name, meta.Labels)
	s.notify(b, Event{Added, stored.DeepCopyObject(), rv})
	return stored.DeepCopyObject(), nil
}

// Update replaces the stored object. The caller's copy must carry the
// ResourceVersion it read; a stale version yields ErrConflict. UID and
// CreationTime are preserved from the stored object. For kinds with a
// status subresource (api.StatusCarrier) the stored status is preserved
// too — status writes go through UpdateStatus.
func (s *Store) Update(obj api.Object) (api.Object, error) {
	return s.update(obj, false)
}

// UpdateStatus replaces only the stored object's status, preserving spec
// and metadata (labels, annotations, owner) from the stored copy — the
// status-subresource write. Objects that do not implement
// api.StatusCarrier fall back to a whole-object Update.
func (s *Store) UpdateStatus(obj api.Object) (api.Object, error) {
	return s.update(obj, true)
}

func (s *Store) update(obj api.Object, statusOnly bool) (api.Object, error) {
	kind := obj.Kind()
	name := obj.GetMeta().Name
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.bucketOf(kind)
	cur, ok := b.objs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, api.Key(obj))
	}
	curMeta := cur.GetMeta()
	if obj.GetMeta().ResourceVersion != curMeta.ResourceVersion {
		return nil, fmt.Errorf("%w: %s (have %d, stored %d)", ErrConflict,
			api.Key(obj), obj.GetMeta().ResourceVersion, curMeta.ResourceVersion)
	}
	var stored api.Object
	if sc, carries := cur.(api.StatusCarrier); carries {
		if statusOnly {
			// Stored spec + metadata, caller's status.
			stored = cur.DeepCopyObject()
			stored.(api.StatusCarrier).SetStatusFrom(obj)
		} else {
			// Caller's spec + metadata, stored status.
			stored = obj.DeepCopyObject()
			stored.(api.StatusCarrier).SetStatusFrom(sc)
		}
	} else {
		stored = obj.DeepCopyObject()
	}
	meta := stored.GetMeta()
	s.rev++
	rv := s.rev
	meta.ResourceVersion = rv
	meta.UID = curMeta.UID
	meta.CreationTime = curMeta.CreationTime
	b.unindexLabels(name, curMeta.Labels)
	b.objs[name] = stored
	b.indexLabels(name, meta.Labels)
	s.notify(b, Event{Modified, stored.DeepCopyObject(), rv})
	return stored.DeepCopyObject(), nil
}

// Delete removes the object by key.
func (s *Store) Delete(kind, name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.bucketOf(kind)
	cur, ok := b.objs[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, api.KeyOf(kind, name))
	}
	delete(b.objs, name)
	b.dirty = true
	b.unindexLabels(name, cur.GetMeta().Labels)
	s.rev++
	s.notify(b, Event{Deleted, cur.DeepCopyObject(), s.rev})
	return nil
}

// Get returns a deep copy of the object by key.
func (s *Store) Get(kind, name string) (api.Object, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b := s.kinds[kind]; b != nil {
		if obj, ok := b.objs[name]; ok {
			return obj.DeepCopyObject(), nil
		}
	}
	return nil, fmt.Errorf("%w: %s", ErrNotFound, api.KeyOf(kind, name))
}

// Count returns the number of objects of a kind without copying them.
func (s *Store) Count(kind string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b := s.kinds[kind]; b != nil {
		return len(b.objs)
	}
	return 0
}

// List returns deep copies of all objects whose key has the given prefix
// (typically "<Kind>/"), sorted by key for determinism. A "<Kind>/..."
// prefix is answered from the kind's index in O(matching).
func (s *Store) List(prefix string) []api.Object {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.list(prefix)
}

// list is List under the held lock.
func (s *Store) list(prefix string) []api.Object {
	if kind, namePrefix, ok := splitPrefix(prefix); ok {
		if b := s.kinds[kind]; b != nil {
			return b.list(namePrefix)
		}
		return nil
	}
	// Generic prefix ("" or a partial kind name): walk matching kinds in
	// key order.
	var out []api.Object
	for _, kind := range s.kindNames() {
		if strings.HasPrefix(kind+"/", prefix) {
			out = append(out, s.kinds[kind].list("")...)
		}
	}
	return out
}

// list returns deep copies of the bucket's objects whose name starts with
// namePrefix, in name order.
func (b *bucket) list(namePrefix string) []api.Object {
	names := b.names()
	lo := sort.SearchStrings(names, namePrefix)
	var out []api.Object
	for _, n := range names[lo:] {
		if !strings.HasPrefix(n, namePrefix) {
			break
		}
		out = append(out, b.objs[n].DeepCopyObject())
	}
	return out
}

// Scan calls fn on each of kind's objects in name order without copying,
// stopping early when fn returns false. The objects are the store's live
// instances: fn must treat them as read-only and must not retain them after
// returning — mutations or retained references would corrupt the store's
// copy-on-write discipline. Intended for samplers and aggregate metrics that
// would otherwise deep-copy the world once per tick. fn runs under the
// store's lock, which is not re-entrant: it must not call back into the
// store.
func (s *Store) Scan(kind string, fn func(api.Object) bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.kinds[kind]
	if b == nil {
		return
	}
	for _, n := range b.names() {
		if !fn(b.objs[n]) {
			return
		}
	}
}

// ListSelector returns deep copies of the kind's objects whose labels match
// sel, sorted by name. Equality and existence requirements are answered
// from the label posting index; the smallest posting set drives the scan.
func (s *Store) ListSelector(kind string, sel labels.Selector) []api.Object {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.kinds[kind]
	if b == nil {
		return nil
	}
	return b.listSelector(sel)
}

// listSelector is ListSelector on a held bucket.
func (b *bucket) listSelector(sel labels.Selector) []api.Object {
	if sel == nil || sel.Empty() {
		return b.list("")
	}
	candidates := b.candidateNames(sel)
	if candidates == nil {
		// No indexable requirement: full (sorted) scan.
		var out []api.Object
		for _, n := range b.names() {
			if sel.Matches(b.objs[n].GetMeta().Labels) {
				out = append(out, b.objs[n].DeepCopyObject())
			}
		}
		return out
	}
	sort.Strings(candidates)
	var out []api.Object
	for _, n := range candidates {
		obj, ok := b.objs[n]
		if ok && sel.Matches(obj.GetMeta().Labels) {
			out = append(out, obj.DeepCopyObject())
		}
	}
	return out
}

// candidateNames returns the smallest posting set usable for sel, or nil
// when no requirement is indexable (caller falls back to a full scan). The
// result may contain false positives; callers must re-check Matches.
func (b *bucket) candidateNames(sel labels.Selector) []string {
	bestSize := -1
	var best []string
	for _, r := range sel.Requirements() {
		var size int
		switch r.Op {
		case labels.Equals:
			size = len(b.byLabel[r.Key][r.Value])
		case labels.Exists:
			for _, set := range b.byLabel[r.Key] {
				size += len(set)
			}
		default:
			continue // not indexable; filter-only
		}
		if bestSize == -1 || size < bestSize {
			bestSize = size
			best = nil
			switch r.Op {
			case labels.Equals:
				for n := range b.byLabel[r.Key][r.Value] {
					best = append(best, n)
				}
			case labels.Exists:
				for _, set := range b.byLabel[r.Key] {
					for n := range set {
						best = append(best, n)
					}
				}
			}
			if size == 0 {
				return []string{}
			}
		}
	}
	return best
}

// splitPrefix decomposes "<Kind>/<name-prefix>" into its parts; ok is false
// for prefixes without a slash (generic scans).
func splitPrefix(prefix string) (kind, namePrefix string, ok bool) {
	i := strings.IndexByte(prefix, '/')
	if i < 0 {
		return "", "", false
	}
	return prefix[:i], prefix[i+1:], true
}

// Watch subscribes to mutations of keys with the given prefix. When replay
// is true, the current matching objects are delivered first as Added events
// (list+watch semantics). Cancel the watch with StopWatch.
func (s *Store) Watch(prefix string, replay bool) *sim.Queue[Event] {
	return s.WatchFiltered(prefix, WatchOptions{}, replay)
}

// WatchFiltered is Watch narrowed by server-side filters: events are only
// delivered for objects passing opts (exact name and/or label selector).
// Replay delivers the currently matching objects as Added events. The
// filters run in the store, so subscribers never pay for events they would
// discard — the kube way of keeping watch fan-out O(interested parties).
// Registration (replay + subscribe) is atomic under the store lock, so no
// mutation is missed or duplicated across the boundary.
func (s *Store) WatchFiltered(prefix string, opts WatchOptions, replay bool) *sim.Queue[Event] {
	w := &watcher{prefix: prefix, opts: opts, queue: sim.NewQueue[Event](s.env)}
	s.mu.Lock()
	defer s.mu.Unlock()
	if replay {
		for _, obj := range s.replaySet(prefix, opts) {
			w.queue.Put(Event{Added, obj, obj.GetMeta().ResourceVersion})
		}
	}
	s.subscribe(w)
	return w.queue
}

// WatchFilteredFrom resumes a dropped watch: it subscribes like
// WatchFiltered but first replays, from the event history, every matching
// mutation that committed after fromRev — so a subscriber that recorded the
// last revision it saw misses nothing across a disconnect. When fromRev
// predates the compaction horizon the gap is unrecoverable and ErrGone is
// returned; the subscriber must relist and start fresh.
func (s *Store) WatchFilteredFrom(prefix string, opts WatchOptions, fromRev int64) (*sim.Queue[Event], error) {
	// The store lock spans replay + subscribe, so a concurrent mutation is
	// either in the replayed history or delivered live.
	s.mu.Lock()
	defer s.mu.Unlock()
	if fromRev > s.rev {
		// The subscriber observed a revision the store no longer has — a
		// torn-tail restore reverted mutations it saw. Its cache may hold
		// phantom state; only a relist can reconcile it.
		return nil, fmt.Errorf("%w: from %d, store at %d (reverted by restore)", ErrGone, fromRev, s.rev)
	}
	if fromRev < s.compactRev {
		return nil, fmt.Errorf("%w: from %d, compacted through %d", ErrGone, fromRev, s.compactRev)
	}
	w := &watcher{prefix: prefix, opts: opts, queue: sim.NewQueue[Event](s.env)}
	for _, ev := range s.history[s.histHead:] {
		if ev.Rev <= fromRev {
			continue
		}
		meta := ev.Object.GetMeta()
		if !strings.HasPrefix(api.Key(ev.Object), prefix) || !opts.matches(meta.Name, meta.Labels) {
			continue
		}
		w.queue.Put(Event{ev.Type, ev.Object.DeepCopyObject(), ev.Rev})
	}
	s.subscribe(w)
	return w.queue, nil
}

// subscribe registers w: in its kind's bucket when the prefix is a plain
// "<Kind>/", else among the generic-prefix watchers.
func (s *Store) subscribe(w *watcher) {
	if kind, namePrefix, ok := splitPrefix(w.prefix); ok && namePrefix == "" {
		b := s.bucketOf(kind)
		b.watchers = append(b.watchers, w)
		return
	}
	s.global = append(s.global, w)
}

// replayBucket lists the objects a kind-scoped filtered watch replays from
// a held bucket, using the indexes where possible.
func replayBucket(b *bucket, opts WatchOptions) []api.Object {
	if opts.Name != "" {
		// Exact-name watch: at most one object.
		if obj, ok := b.objs[opts.Name]; ok {
			meta := obj.GetMeta()
			if opts.Selector == nil || opts.Selector.Matches(meta.Labels) {
				return []api.Object{obj.DeepCopyObject()}
			}
		}
		return nil
	}
	if opts.Selector != nil {
		return b.listSelector(opts.Selector)
	}
	return b.list("")
}

// replaySet lists the objects a filtered watch replays, under the held
// lock. A plain "<Kind>/" prefix is answered from the kind's indexes.
func (s *Store) replaySet(prefix string, opts WatchOptions) []api.Object {
	if kind, namePrefix, ok := splitPrefix(prefix); ok && namePrefix == "" {
		if b := s.kinds[kind]; b != nil {
			return replayBucket(b, opts)
		}
		return nil
	}
	var out []api.Object
	for _, obj := range s.list(prefix) {
		if opts.matches(obj.GetMeta().Name, obj.GetMeta().Labels) {
			out = append(out, obj)
		}
	}
	return out
}

// StopWatch cancels a subscription created by Watch and closes its queue.
func (s *Store) StopWatch(q *sim.Queue[Event]) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if removeWatcher(&s.global, q) {
		q.Close()
		return
	}
	for _, b := range s.kinds {
		if removeWatcher(&b.watchers, q) {
			q.Close()
			return
		}
	}
}

// removeWatcher deletes q's watcher from *ws, reporting whether it was there.
func removeWatcher(ws *[]*watcher, q *sim.Queue[Event]) bool {
	for i, w := range *ws {
		if w.queue == q {
			*ws = append((*ws)[:i], (*ws)[i+1:]...)
			return true
		}
	}
	return false
}

// notify fans an event out to the kind's watchers and any generic-prefix
// watchers, then records it into the resumable history (which takes
// ownership of ev.Object). Each subscriber gets its own copy so mutation
// never leaks between consumers. Callers hold the store lock, so the WAL,
// every subscriber and the history see mutations in revision order.
func (s *Store) notify(b *bucket, ev Event) {
	s.logMutation(ev)
	meta := ev.Object.GetMeta()
	for _, w := range b.watchers {
		if w.opts.matches(meta.Name, meta.Labels) {
			w.queue.Put(Event{ev.Type, ev.Object.DeepCopyObject(), ev.Rev})
		}
	}
	if len(s.global) > 0 {
		key := api.Key(ev.Object)
		for _, w := range s.global {
			if strings.HasPrefix(key, w.prefix) && w.opts.matches(meta.Name, meta.Labels) {
				w.queue.Put(Event{ev.Type, ev.Object.DeepCopyObject(), ev.Rev})
			}
		}
	}
	s.record(ev)
}
