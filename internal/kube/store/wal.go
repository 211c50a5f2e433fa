// Durability: a deterministic write-ahead log plus periodic checkpoints,
// the etcd-analogue persistence layer behind apiserver crash/restart chaos.
//
// The durable medium is a byte buffer standing in for the WAL file and
// checkpoint file a real control plane fsyncs — it survives a Store crash
// because Crash only discards the in-memory object state and rebuilds it
// from the medium. Every mutation appends one framed record
// ([len][crc32][JSON payload]) under the store lock that assigns its
// revision, so record order is revision order; a checkpoint serializes the
// whole store under that lock and truncates the log.
//
// Restore loads the checkpoint, then replays the log in frame order. A torn
// tail — a truncated or corrupt final region, the crash-mid-write case — is
// detected by the frame length/CRC/decode checks, truncated off the medium,
// and replay stops there: the store recovers to the longest valid prefix
// and never wedges. Consumers that observed a reverted mutation are fenced
// by the revision rules (see WatchFilteredFrom) and by the restart epoch.
//
// All timestamps in this layer are virtual-clock values carried as int64
// nanoseconds; the file deliberately imports neither os nor time (enforced
// by tools/detvet) — durability is simulated, deterministic state, not host
// I/O.
package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"sync"

	"kubeshare/internal/kube/api"
	"kubeshare/internal/sim"
)

// Modeled durable-medium costs, in virtual nanoseconds. They price the
// outage a real restart of the same footprint would incur: sequential
// reads/writes at ~1 GB/s and a per-record replay cost covering decode and
// index insertion. RestoreStats.ModeledOutageNS and the fig17 experiment
// are built from these.
const (
	// DurableIONSPerByte prices sequential checkpoint/WAL reads and writes.
	DurableIONSPerByte = 1
	// ReplayNSPerRecord prices decoding and applying one WAL record.
	ReplayNSPerRecord = 2000
)

// walPut/walDelete tag WAL records. A put carries the full post-mutation
// stored object (spec-vs-status subresource merging already happened), so
// replay is a blind upsert; a delete carries only the key.
const (
	walPut    = "PUT"
	walDelete = "DEL"
)

// walRecord is one logged mutation.
type walRecord struct {
	Op   string
	Rev  int64
	Kind string
	Name string
	// Obj is the stored object after the mutation (nil for deletes).
	Obj json.RawMessage `json:",omitempty"`
}

// Durable is the simulated durable medium: the checkpoint area plus the
// append-only log. It is owned by the Store that writes it but survives
// Crash, exactly as the files under an etcd data dir survive the process.
type Durable struct {
	mu         sync.Mutex
	checkpoint []byte // last serialized checkpoint; nil before the first
	wal        []byte // framed records appended since that checkpoint
	records    int64  // frames currently in wal
}

// Sizes reports the medium's current footprint: checkpoint bytes, WAL bytes
// and WAL record count.
func (d *Durable) Sizes() (checkpointBytes, walBytes int, walRecords int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.checkpoint), len(d.wal), d.records
}

// DurableSizes is Durable.Sizes through the store (zeroes with durability
// off).
func (s *Store) DurableSizes() (checkpointBytes, walBytes int, walRecords int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dur == nil {
		return 0, 0, 0
	}
	return s.dur.Sizes()
}

// checkpointKind is one kind's objects in a checkpoint, in name order.
type checkpointKind struct {
	Kind    string
	Objects []json.RawMessage
}

// checkpointState is the full serialized store: the revision counters and
// every object, grouped by kind (kinds sorted, objects name-sorted), so the
// encoding is byte-deterministic for a given store state.
type checkpointState struct {
	Rev     int64
	NextUID int64
	Kinds   []checkpointKind
}

// RestoreStats describes one crash/restore cycle.
type RestoreStats struct {
	// CheckpointRev is the revision the loaded checkpoint was taken at
	// (zero when the store restored from an empty medium).
	CheckpointRev int64
	// RestoredRev is the store revision after replay; the next mutation
	// commits strictly above it.
	RestoredRev int64
	// Replayed is the number of WAL records applied on top of the
	// checkpoint.
	Replayed int
	// TornTail is true when the log ended in a truncated or corrupt region
	// that was cut off; mutations in it were reverted.
	TornTail bool
	// CheckpointBytes and WALBytes are the medium footprint read back.
	CheckpointBytes int
	WALBytes        int
	// ModeledOutageNS prices the restart a real system of this footprint
	// would pay: sequential re-read of checkpoint + log, plus per-record
	// replay (virtual nanoseconds; the simulated restore itself is
	// instantaneous).
	ModeledOutageNS int64
}

// EnableDurability attaches a fresh durable medium and takes an immediate
// checkpoint of the current state, so a crash at any later instant can
// restore everything (enabling on a non-empty store is the common case: the
// cluster wires its nodes first). Hooks observe the layer for telemetry:
// onAppend fires per batch of WAL records, onCheckpoint per checkpoint with
// the bytes written; either may be nil. onAppend runs under the store lock
// and must not call back into the store. Idempotent: re-enabling keeps the
// existing medium.
func (s *Store) EnableDurability(onAppend func(records int), onCheckpoint func(bytes int)) {
	s.mu.Lock()
	if s.dur != nil {
		s.mu.Unlock()
		return
	}
	s.onWALAppend = onAppend
	s.onCheckpoint = onCheckpoint
	s.dur = &Durable{}
	s.mu.Unlock()
	s.Checkpoint()
}

// DurabilityEnabled reports whether the store has a durable medium.
func (s *Store) DurabilityEnabled() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dur != nil
}

// Epoch counts crash/restore cycles. Consumers (reflectors, schedulers)
// compare epochs across reconnects: a changed epoch means in-memory server
// state they depended on — watch registrations, possibly torn-tail-reverted
// mutations — did not survive, and they must relist rather than resume.
func (s *Store) Epoch() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// logMutation appends one framed record for ev. Callers hold the store
// lock, so frame order is revision order.
func (s *Store) logMutation(ev Event) {
	if s.dur == nil {
		return
	}
	rec := walRecord{Rev: ev.Rev, Kind: ev.Object.Kind(), Name: ev.Object.GetMeta().Name}
	if ev.Type == Deleted {
		rec.Op = walDelete
	} else {
		rec.Op = walPut
		obj, err := json.Marshal(ev.Object)
		if err != nil {
			panic(fmt.Sprintf("store: wal encode %s: %v", api.Key(ev.Object), err))
		}
		rec.Obj = obj
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		panic(fmt.Sprintf("store: wal frame %s/%s: %v", rec.Kind, rec.Name, err))
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	d := s.dur
	d.mu.Lock()
	d.wal = append(d.wal, hdr[:]...)
	d.wal = append(d.wal, payload...)
	d.records++
	d.mu.Unlock()
	if s.onWALAppend != nil {
		s.onWALAppend(1)
	}
}

// Checkpoint serializes the whole store to the durable medium and truncates
// the WAL. It runs under the store lock, so the image is a consistent cut:
// no mutation straddles the boundary. Returns the checkpoint size in bytes
// (0 when durability is off).
func (s *Store) Checkpoint() int {
	n, hook := s.writeCheckpoint()
	if hook != nil {
		hook(n)
	}
	return n
}

// writeCheckpoint is Checkpoint under the store lock. It returns the image
// size and the checkpoint hook, which the caller runs after the lock is
// released.
func (s *Store) writeCheckpoint() (int, func(bytes int)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dur == nil {
		return 0, nil
	}
	ck := checkpointState{Rev: s.rev, NextUID: s.nextUID}
	for _, kind := range s.kindNames() {
		b := s.kinds[kind]
		ks := checkpointKind{Kind: kind}
		for _, name := range b.names() {
			obj, err := json.Marshal(b.objs[name])
			if err != nil {
				panic(fmt.Sprintf("store: checkpoint encode %s/%s: %v", kind, name, err))
			}
			ks.Objects = append(ks.Objects, obj)
		}
		ck.Kinds = append(ck.Kinds, ks)
	}
	image, err := json.Marshal(ck)
	if err != nil {
		panic(fmt.Sprintf("store: checkpoint encode: %v", err))
	}
	d := s.dur
	d.mu.Lock()
	d.checkpoint = image
	d.wal = d.wal[:0]
	d.records = 0
	d.mu.Unlock()
	return len(image), s.onCheckpoint
}

// TearWALTail damages the durable log's tail — the chaos hook simulating a
// crash mid-write. n > 0 truncates the last n bytes (clamped); n <= 0 flips
// the final byte in place (a CRC failure). Reports whether there was any
// log to damage.
func (s *Store) TearWALTail(n int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dur == nil {
		return false
	}
	d := s.dur
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.wal) == 0 {
		return false
	}
	if n <= 0 {
		d.wal[len(d.wal)-1] ^= 0xFF
		return true
	}
	if n > len(d.wal) {
		n = len(d.wal)
	}
	d.wal = d.wal[:len(d.wal)-n]
	return true
}

// Crash discards every piece of in-memory state — objects, indexes, watch
// registrations, resumable history — as an apiserver process death would,
// then restores from the durable medium: checkpoint load plus WAL replay
// with torn-tail truncation. All watch queues close (subscribers see EOF
// and must reconnect), the restart epoch increments, and the compaction
// horizon moves to the restored revision so every resume-from-before-the-
// crash gets ErrGone and relists. Returns an error only when durability was
// never enabled.
func (s *Store) Crash() (RestoreStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dur == nil {
		return RestoreStats{}, fmt.Errorf("store: Crash without durability enabled")
	}
	// 1. Tear down: collect every watch queue, clear all object state.
	var doomed []*sim.Queue[Event]
	for _, b := range s.kinds {
		for _, w := range b.watchers {
			doomed = append(doomed, w.queue)
		}
	}
	for _, w := range s.global {
		doomed = append(doomed, w.queue)
	}
	s.kinds = make(map[string]*bucket)
	s.global = nil
	s.history = nil
	s.histHead = 0

	// 2. Read the medium back, validating the WAL and truncating a torn
	// tail in place.
	d := s.dur
	d.mu.Lock()
	image := d.checkpoint
	wal, torn, replayable := validateWAL(d.wal)
	if torn {
		d.wal = d.wal[:len(wal)]
		d.records = int64(replayable)
	}
	d.mu.Unlock()

	st := RestoreStats{TornTail: torn, CheckpointBytes: len(image), WALBytes: len(wal)}

	// 3. Checkpoint load.
	var ck checkpointState
	if len(image) > 0 {
		if err := json.Unmarshal(image, &ck); err != nil {
			// A corrupt checkpoint is unrecoverable by design: it is written
			// atomically (never appended), so this is a programming error,
			// not a crash artifact.
			panic(fmt.Sprintf("store: checkpoint corrupt: %v", err))
		}
	}
	st.CheckpointRev = ck.Rev
	maxRev := ck.Rev
	nextUID := ck.NextUID
	for _, ks := range ck.Kinds {
		b := s.bucketOf(ks.Kind)
		for _, raw := range ks.Objects {
			obj, err := decodeObject(ks.Kind, raw)
			if err != nil {
				panic(fmt.Sprintf("store: checkpoint decode %s: %v", ks.Kind, err))
			}
			meta := obj.GetMeta()
			b.objs[meta.Name] = obj
			b.indexLabels(meta.Name, meta.Labels)
		}
		b.dirty = true
	}

	// 4. WAL replay over the valid prefix.
	off := 0
	for off < len(wal) {
		n := int(binary.LittleEndian.Uint32(wal[off:]))
		payload := wal[off+8 : off+8+n]
		off += 8 + n
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			panic("store: validated wal record failed to decode") // validateWAL checked this
		}
		b := s.bucketOf(rec.Kind)
		switch rec.Op {
		case walPut:
			obj, err := decodeObject(rec.Kind, rec.Obj)
			if err != nil {
				panic(fmt.Sprintf("store: wal decode %s/%s: %v", rec.Kind, rec.Name, err))
			}
			meta := obj.GetMeta()
			if prev, ok := b.objs[meta.Name]; ok {
				b.unindexLabels(meta.Name, prev.GetMeta().Labels)
			}
			b.objs[meta.Name] = obj
			b.indexLabels(meta.Name, meta.Labels)
			if uid := parseUID(meta.UID); uid > nextUID {
				nextUID = uid
			}
		case walDelete:
			if prev, ok := b.objs[rec.Name]; ok {
				b.unindexLabels(rec.Name, prev.GetMeta().Labels)
				delete(b.objs, rec.Name)
			}
		}
		b.dirty = true
		if rec.Rev > maxRev {
			maxRev = rec.Rev
		}
		st.Replayed++
	}

	// 5. Counters resume strictly above everything restored: the revision
	// is the max over the checkpoint cut and every replayed record, so the
	// next mutation's revision exceeds every restored one.
	s.rev = maxRev
	s.nextUID = nextUID
	s.compactRev = maxRev
	s.epoch++

	// 6. Close the dead queues last (closing wakes parked consumers, whose
	// reconnects run after this call returns and so observe the fully
	// restored state).
	for _, q := range doomed {
		q.Close()
	}

	st.RestoredRev = maxRev
	st.ModeledOutageNS = int64(st.CheckpointBytes+st.WALBytes)*DurableIONSPerByte +
		int64(st.Replayed)*ReplayNSPerRecord
	return st, nil
}

// validateWAL scans the framed log and returns the longest valid prefix,
// whether a torn tail was cut, and the record count of the prefix. A frame
// is valid when its header fits, its declared length fits, its CRC matches
// and its payload decodes as a walRecord.
func validateWAL(wal []byte) (valid []byte, torn bool, records int) {
	off := 0
	for off < len(wal) {
		if len(wal)-off < 8 {
			return wal[:off], true, records
		}
		n := int(binary.LittleEndian.Uint32(wal[off:]))
		if n <= 0 || n > len(wal)-off-8 {
			return wal[:off], true, records
		}
		payload := wal[off+8 : off+8+n]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(wal[off+4:]) {
			return wal[:off], true, records
		}
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return wal[:off], true, records
		}
		off += 8 + n
		records++
	}
	return wal, false, records
}

// decodeObject rebuilds a typed object from its kind and JSON form via the
// kind registry.
func decodeObject(kind string, raw json.RawMessage) (api.Object, error) {
	obj, err := api.NewObject(kind)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(raw, obj); err != nil {
		return nil, err
	}
	return obj, nil
}

// parseUID extracts N from the store's "uid-N" UID scheme (0 for foreign
// forms), letting restore advance the UID counter past every restored
// object.
func parseUID(uid string) int64 {
	var n int64
	if _, err := fmt.Sscanf(uid, "uid-%d", &n); err != nil {
		return 0
	}
	return n
}
