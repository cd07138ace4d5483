package serve

import (
	"bytes"
	"encoding/binary"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSnapshotRoundTrip: write a warm server's caches, restore into a
// fresh server, and require the restored replica's first /v1/plan to be a
// byte-identical cache hit (zero misses — warm from request one).
func TestSnapshotRoundTrip(t *testing.T) {
	src, srcTS := newTestServer(t, Config{})
	_, wantPlan := post(t, srcTS, "/v1/plan", planBody)
	status, wantFleet := post(t, srcTS, "/v1/fleet/plan", fleetBody)
	if status != http.StatusOK {
		t.Fatalf("fleet plan: %d %s", status, wantFleet)
	}

	path := filepath.Join(t.TempDir(), "caches.snap")
	stats, err := src.WriteSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Entries != 2 {
		t.Fatalf("snapshot persisted %d entries, want 2 (plan + fleet)", stats.Entries)
	}
	if stats.Bytes <= 0 {
		t.Fatalf("snapshot reported %d bytes", stats.Bytes)
	}

	dst, dstTS := newTestServer(t, Config{})
	n, err := dst.RestoreSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || dst.RestoredEntries() != 2 {
		t.Fatalf("restored %d entries (gauge %d), want 2", n, dst.RestoredEntries())
	}
	if age := dst.SnapshotAgeSeconds(); age <= 0 || age > 60 {
		t.Fatalf("restored snapshot age %.3fs, want the source's creation time", age)
	}

	status, gotPlan := post(t, dstTS, "/v1/plan", planBody)
	if status != http.StatusOK || !bytes.Equal(gotPlan, wantPlan) {
		t.Fatalf("restored /v1/plan (status %d) diverges from source:\ngot:  %.120s\nwant: %.120s", status, gotPlan, wantPlan)
	}
	status, gotFleet := post(t, dstTS, "/v1/fleet/plan", fleetBody)
	if status != http.StatusOK || !bytes.Equal(gotFleet, wantFleet) {
		t.Fatalf("restored /v1/fleet/plan (status %d) diverges from source", status)
	}
	if pc := dst.Snapshot().PlanCache; pc.Hits != 1 || pc.Misses != 0 {
		t.Fatalf("restored replica's first /v1/plan: hits=%d misses=%d, want a warm hit with no compute", pc.Hits, pc.Misses)
	}
	if fc := dst.Snapshot().FleetCache; fc.Hits != 1 || fc.Misses != 0 {
		t.Fatalf("restored replica's first fleet plan: hits=%d misses=%d, want warm", fc.Hits, fc.Misses)
	}
}

// TestSnapshotSkipsCachedErrors: failed outcomes are not persisted —
// transient errors must not be pinned across restarts.
func TestSnapshotSkipsCachedErrors(t *testing.T) {
	src, srcTS := newTestServer(t, Config{})
	// P=7 has no even-D split for bert48: cached as an error outcome.
	if status, _ := post(t, srcTS, "/v1/plan", `{"model":{"preset":"bert48"},"p":7,"mini_batch":512,"platform":{"preset":"pizdaint"}}`); status == http.StatusOK {
		t.Fatal("expected the infeasible plan to fail")
	}
	path := filepath.Join(t.TempDir(), "caches.snap")
	stats, err := src.WriteSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Entries != 0 {
		t.Fatalf("snapshot persisted %d entries, want 0 (error outcomes skipped)", stats.Entries)
	}
}

// TestSnapshotRestoreSmallerAndWarm: restoring into a cache bounded below
// the snapshot's entry count truncates to the snapshot's most-recent
// entries (an insert never evicts itself, only older restores), and
// restoring into a warm server counts only the entries actually inserted.
func TestSnapshotRestoreSmallerAndWarm(t *testing.T) {
	src, srcTS := newTestServer(t, Config{})
	bodies := []string{
		`{"model":{"preset":"bert48"},"p":16,"mini_batch":128,"max_b":16,"platform":{"preset":"pizdaint"}}`,
		`{"model":{"preset":"bert48"},"p":16,"mini_batch":256,"max_b":16,"platform":{"preset":"pizdaint"}}`,
		`{"model":{"preset":"bert48"},"p":16,"mini_batch":512,"max_b":16,"platform":{"preset":"pizdaint"}}`,
	}
	for _, b := range bodies {
		if status, out := post(t, srcTS, "/v1/plan", b); status != http.StatusOK {
			t.Fatalf("plan: %d %s", status, out)
		}
	}
	path := filepath.Join(t.TempDir(), "caches.snap")
	if _, err := src.WriteSnapshot(path); err != nil {
		t.Fatal(err)
	}

	dst, dstTS := newTestServer(t, Config{CacheCapacity: 2})
	n, err := dst.RestoreSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("restore reported %d inserts, want 3 (truncated inserts still inserted)", n)
	}
	// The newest snapshot entry survives the truncation…
	if status, body := post(t, dstTS, "/v1/plan", bodies[2]); status != http.StatusOK {
		t.Fatalf("plan after restore: %d %s", status, body)
	}
	if pc := dst.Snapshot().PlanCache; pc.Hits != 1 || pc.Misses != 0 {
		t.Fatalf("newest snapshot entry should survive truncation: hits=%d misses=%d", pc.Hits, pc.Misses)
	}
	// …and the oldest was the one truncated away.
	if status, body := post(t, dstTS, "/v1/plan", bodies[0]); status != http.StatusOK {
		t.Fatalf("plan after restore: %d %s", status, body)
	}
	if pc := dst.Snapshot().PlanCache; pc.Misses != 1 {
		t.Fatalf("oldest snapshot entry should have been truncated: misses=%d", pc.Misses)
	}

	warm, warmTS := newTestServer(t, Config{})
	if status, body := post(t, warmTS, "/v1/plan", bodies[0]); status != http.StatusOK {
		t.Fatalf("warm plan: %d %s", status, body)
	}
	n, err = warm.RestoreSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || warm.RestoredEntries() != 2 {
		t.Fatalf("warm restore reported %d inserts (gauge %d), want 2 — the existing entry is not recounted", n, warm.RestoredEntries())
	}
}

// TestSnapshotRestoresParentFixture: testdata/parent_v1.chimsnap was written
// by the commit before the response caches became one type (three plans, one
// fleet plan, a classic and an elastic fleet simulation). The CHIMSNAP v1
// format did not change, so it must restore all six entries, each warm.
func TestSnapshotRestoresParentFixture(t *testing.T) {
	dst, ts := newTestServer(t, Config{})
	n, err := dst.RestoreSnapshot(filepath.Join("testdata", "parent_v1.chimsnap"))
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Fatalf("restored %d entries from the parent commit's snapshot, want 6", n)
	}
	for _, rq := range [][2]string{
		{"/v1/plan", planBody},
		{"/v1/fleet/plan", fleetBody},
		{"/v1/fleet/simulate", fleetClassicSimBody},
		{"/v1/fleet/simulate", fleetElasticBody},
	} {
		if status, body := post(t, ts, rq[0], rq[1]); status != http.StatusOK {
			t.Fatalf("%s after restore: %d %s", rq[0], status, body)
		}
	}
	st := dst.Snapshot()
	for name, c := range map[string]CacheTableJSON{"plan": st.PlanCache, "fleet": st.FleetCache, "fleet_sim": st.FleetSimCache} {
		if c.Misses != 0 || c.Hits == 0 {
			t.Errorf("%s cache after restore: hits=%d misses=%d, want every request warm", name, c.Hits, c.Misses)
		}
	}
	if st.PlanCache.Entries != 3 || st.FleetCache.Entries != 1 || st.FleetSimCache.Entries != 2 {
		t.Errorf("restored entries plan=%d fleet=%d fleet_sim=%d, want 3/1/2",
			st.PlanCache.Entries, st.FleetCache.Entries, st.FleetSimCache.Entries)
	}
}

// TestSnapshotRefusesDamage: every container-validation failure — bad
// magic, unsupported version, truncation at several depths, a flipped
// payload bit — must refuse the file without inserting anything.
func TestSnapshotRefusesDamage(t *testing.T) {
	src, srcTS := newTestServer(t, Config{})
	if status, body := post(t, srcTS, "/v1/plan", planBody); status != http.StatusOK {
		t.Fatalf("plan: %d %s", status, body)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "caches.snap")
	if _, err := src.WriteSnapshot(path); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	damage := []struct {
		name    string
		mutate  func([]byte) []byte
		wantErr string
	}{
		{"empty", func(b []byte) []byte { return nil }, "truncated header"},
		{"short-header", func(b []byte) []byte { return b[:10] }, "truncated header"},
		{"bad-magic", func(b []byte) []byte {
			c := bytes.Clone(b)
			copy(c, "NOTASNAP")
			return c
		}, "bad magic"},
		{"future-version", func(b []byte) []byte {
			c := bytes.Clone(b)
			binary.BigEndian.PutUint32(c[8:], snapshotVersion+1)
			return c
		}, "unsupported version"},
		{"truncated-payload", func(b []byte) []byte { return b[:len(b)-8] }, "truncated payload"},
		{"flipped-bit", func(b []byte) []byte {
			c := bytes.Clone(b)
			c[len(snapshotMagic)+4+8+3] ^= 0x01
			return c
		}, "checksum mismatch"},
	}
	for _, tc := range damage {
		bad := filepath.Join(dir, tc.name+".snap")
		if err := os.WriteFile(bad, tc.mutate(bytes.Clone(good)), 0o644); err != nil {
			t.Fatal(err)
		}
		dst, _ := newTestServer(t, Config{})
		n, err := dst.RestoreSnapshot(bad)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("%s: RestoreSnapshot err %v, want %q", tc.name, err, tc.wantErr)
		}
		if n != 0 || dst.Snapshot().PlanCache.Entries != 0 {
			t.Fatalf("%s: refusal inserted %d entries (cache has %d), want untouched caches",
				tc.name, n, dst.Snapshot().PlanCache.Entries)
		}
	}
}

// TestSnapshotEndpoint: POST /v1/cache/snapshot writes the configured path
// and reports what it persisted; an unconfigured server refuses with 422.
func TestSnapshotEndpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "caches.snap")
	_, ts := newTestServer(t, Config{SnapshotPath: path})
	if status, body := post(t, ts, "/v1/plan", planBody); status != http.StatusOK {
		t.Fatalf("plan: %d %s", status, body)
	}
	status, body := post(t, ts, "/v1/cache/snapshot", "")
	if status != http.StatusOK {
		t.Fatalf("snapshot endpoint: %d %s", status, body)
	}
	if !strings.Contains(string(body), `"entries":1`) {
		t.Fatalf("snapshot response %s, want entries:1", body)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("snapshot endpoint did not write %s: %v", path, err)
	}

	_, bare := newTestServer(t, Config{})
	if status, body := post(t, bare, "/v1/cache/snapshot", ""); status != http.StatusUnprocessableEntity {
		t.Fatalf("unconfigured snapshot endpoint: %d %s, want 422", status, body)
	}
}
