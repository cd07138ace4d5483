package serve

// Cache snapshot/restore: the serve tier's response caches (plan, fleet
// plan, fleet simulate) are pure functions of their resolved requests, so a
// replica can persist them to disk and a replacement replica can start warm
// instead of recomputing the hot set from scratch.
//
// On-disk container:
//
//	offset  size  field
//	0       8     magic "CHIMSNAP"
//	8       4     format version, big-endian uint32 (currently 1)
//	12      8     payload length, big-endian uint64
//	20      n     payload: JSON snapshotPayload
//	20+n    4     CRC-32 (IEEE) of the payload, big-endian uint32
//
// The explicit length plus trailing checksum makes truncation and bit rot
// detectable before any payload byte is trusted; the version gate makes a
// future payload change a clean refusal instead of a silent misparse. A
// refused snapshot never aborts startup — the replica just starts cold.
//
// Only successful outcomes (err == nil) are persisted: cached errors are
// cheap to recompute and freezing them across restarts would pin transient
// failures. Entries are written in Range order (least-recently used first,
// whatever the source's bound) so restoring into a bounded table reproduces
// the source's recency.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"time"
)

const (
	snapshotMagic   = "CHIMSNAP"
	snapshotVersion = 1
)

// snapshotPayload is the JSON body between the header and the checksum: one
// array of snapEntry per response cache (see endpointInfo.snapField).
type snapshotPayload struct {
	CreatedUnixNano int64           `json:"created_unix_nano"`
	Plan            json.RawMessage `json:"plan"`
	Fleet           json.RawMessage `json:"fleet"`
	FleetSim        json.RawMessage `json:"fleet_sim"`
}

// SnapshotStats reports what a WriteSnapshot call persisted.
type SnapshotStats struct {
	Entries int
	Bytes   int64
}

// WriteSnapshot persists the response caches to path atomically (temp file
// in the same directory, then rename), so a reader never observes a
// half-written snapshot and a crash mid-write leaves any previous snapshot
// intact.
func (s *Server) WriteSnapshot(path string) (SnapshotStats, error) {
	now := time.Now()
	payload := snapshotPayload{CreatedUnixNano: now.UnixNano()}
	entries := 0
	for _, c := range s.caches {
		table, n, err := c.export()
		if err != nil {
			return SnapshotStats{}, fmt.Errorf("cache snapshot: encode: %w", err)
		}
		*c.info().snapField(&payload) = table
		entries += n
	}
	raw, err := encodeSnapshot(payload)
	if err != nil {
		return SnapshotStats{}, err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return SnapshotStats{}, fmt.Errorf("cache snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return SnapshotStats{}, fmt.Errorf("cache snapshot: %w", err)
	}
	s.lastSnapshotNano.Store(now.UnixNano())
	s.snapshotsWritten.Add(1)
	return SnapshotStats{Entries: entries, Bytes: int64(len(raw))}, nil
}

// RestoreSnapshot loads a snapshot written by WriteSnapshot into the
// response caches and returns how many entries it actually inserted:
// entries the live caches already held are not counted (existing entries
// win — Memo.Put never overwrites — so restoring into a warm server cannot
// clobber fresher computations). Snapshot entries arrive least recently
// used first, so a cache with a smaller capacity than the snapshot truncates
// to the snapshot's most-recently-used entries, recency preserved; the
// truncated inserts still count (they were inserted, then evicted by later
// ones). Any validation failure — wrong magic, unsupported version,
// truncation, checksum mismatch, an undecodable table — is returned without
// touching the caches.
func (s *Server) RestoreSnapshot(path string) (int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("cache snapshot: %w", err)
	}
	payload, err := decodeSnapshot(raw)
	if err != nil {
		return 0, err
	}
	inserts := make([]func() int, len(s.caches))
	for i, c := range s.caches {
		if inserts[i], err = c.decode(*c.info().snapField(&payload)); err != nil {
			return 0, fmt.Errorf("cache snapshot: decode payload: %w", err)
		}
	}
	n := 0
	for _, insert := range inserts {
		n += insert()
	}
	s.restoredEntries.Store(int64(n))
	// The age gauge dates from when the snapshot was taken, not when it was
	// restored: a replica warmed from a day-old file should say so.
	s.lastSnapshotNano.Store(payload.CreatedUnixNano)
	return n, nil
}

// encodeSnapshot frames a payload in the on-disk container format.
func encodeSnapshot(payload snapshotPayload) ([]byte, error) {
	body, err := json.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("cache snapshot: encode: %w", err)
	}
	raw := make([]byte, 0, len(snapshotMagic)+4+8+len(body)+4)
	raw = append(raw, snapshotMagic...)
	raw = binary.BigEndian.AppendUint32(raw, snapshotVersion)
	raw = binary.BigEndian.AppendUint64(raw, uint64(len(body)))
	raw = append(raw, body...)
	raw = binary.BigEndian.AppendUint32(raw, crc32.ChecksumIEEE(body))
	return raw, nil
}

// decodeSnapshot validates the container (magic, version, length, checksum)
// and unmarshals the payload.
func decodeSnapshot(raw []byte) (snapshotPayload, error) {
	var payload snapshotPayload
	headerLen := len(snapshotMagic) + 4 + 8
	if len(raw) < headerLen {
		return payload, errors.New("cache snapshot: truncated header")
	}
	if string(raw[:len(snapshotMagic)]) != snapshotMagic {
		return payload, errors.New("cache snapshot: bad magic (not a chimera cache snapshot)")
	}
	version := binary.BigEndian.Uint32(raw[len(snapshotMagic):])
	if version != snapshotVersion {
		return payload, fmt.Errorf("cache snapshot: unsupported version %d (this build reads version %d)", version, snapshotVersion)
	}
	bodyLen := binary.BigEndian.Uint64(raw[len(snapshotMagic)+4:])
	rest := raw[headerLen:]
	if uint64(len(rest)) < bodyLen+4 {
		return payload, fmt.Errorf("cache snapshot: truncated payload (header promises %d bytes, %d present)", bodyLen, len(rest))
	}
	body := rest[:bodyLen]
	want := binary.BigEndian.Uint32(rest[bodyLen:])
	if got := crc32.ChecksumIEEE(body); got != want {
		return payload, fmt.Errorf("cache snapshot: checksum mismatch (corrupt payload): got %08x want %08x", got, want)
	}
	if err := json.Unmarshal(body, &payload); err != nil {
		return payload, fmt.Errorf("cache snapshot: decode payload: %w", err)
	}
	return payload, nil
}

// SnapshotAgeSeconds reports the age of the newest snapshot this server
// wrote or restored (0 when none); feeds the serve_snapshot_age_seconds
// gauge so operators can alert on stale warm-start state.
func (s *Server) SnapshotAgeSeconds() float64 {
	nano := s.lastSnapshotNano.Load()
	if nano == 0 {
		return 0
	}
	return time.Since(time.Unix(0, nano)).Seconds()
}

// RestoredEntries reports how many cache entries the last RestoreSnapshot
// call inserted.
func (s *Server) RestoredEntries() int64 { return s.restoredEntries.Load() }
