package service

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"suss/internal/experiments"
	"suss/internal/scenarios"
	"suss/internal/service/confhash"
)

func tmpCachePath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "cache.log")
}

func mustOpen(t *testing.T, path string) (*Cache, RecoveryInfo) {
	t.Helper()
	c, info, err := NewPersistentCache(path)
	if err != nil {
		t.Fatalf("NewPersistentCache(%s): %v", path, err)
	}
	return c, info
}

// putString stores val as both the cell and its record bytes.
func putString(c *Cache, key, val string) { c.Put(key, val, []byte(val)) }

// stringCell is the decode hook matching putString.
func stringCell(raw []byte) (any, error) { return string(raw), nil }

func fillCache(t *testing.T, c *Cache, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		putString(c, fmt.Sprintf("key-%04d", i), fmt.Sprintf(`{"cell":%d}`, i))
	}
}

// The basic durability contract: everything Put before a clean close
// is served after reopen, with no truncation reported.
func TestPersistRoundTrip(t *testing.T) {
	path := tmpCachePath(t)
	c, info := mustOpen(t, path)
	if info.Entries != 0 || info.Truncated {
		t.Fatalf("fresh file recovery = %+v, want empty and clean", info)
	}
	fillCache(t, c, 20)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, info2 := mustOpen(t, path)
	defer c2.Close()
	if info2.Entries != 20 || info2.Truncated {
		t.Fatalf("reopen recovery = %+v, want 20 clean entries", info2)
	}
	for i := 0; i < 20; i++ {
		v, ok := c2.Get(fmt.Sprintf("key-%04d", i), stringCell)
		if !ok || v != fmt.Sprintf(`{"cell":%d}`, i) {
			t.Fatalf("key-%04d after reopen: %q ok=%v", i, v, ok)
		}
	}
}

// A torn tail — the write a kill -9 interrupted — is truncated at the
// last intact record, and the file accepts appends again afterwards.
func TestPersistTornTailRecovered(t *testing.T) {
	path := tmpCachePath(t)
	c, _ := mustOpen(t, path)
	fillCache(t, c, 5)
	c.Close()
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Append a frame that promises 500 payload bytes and delivers 7.
	torn := append([]byte(nil), whole...)
	torn = binary.BigEndian.AppendUint32(torn, 500)
	torn = append(torn, make([]byte, sha256.Size)...)
	torn = append(torn, []byte("garbage")...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	c2, info := mustOpen(t, path)
	if info.Entries != 5 || !info.Truncated || info.DroppedBytes != int64(len(torn)-len(whole)) {
		t.Fatalf("torn-tail recovery = %+v, want 5 entries and %d dropped bytes", info, len(torn)-len(whole))
	}
	if !strings.Contains(info.Reason, "torn") {
		t.Errorf("recovery reason %q does not mention the torn tail", info.Reason)
	}
	// The truncated file is a valid log again: append and re-replay.
	putString(c2, "after-recovery", "v")
	c2.Close()
	c3, info3 := mustOpen(t, path)
	defer c3.Close()
	if info3.Entries != 6 || info3.Truncated {
		t.Fatalf("post-recovery reopen = %+v, want 6 clean entries", info3)
	}
	if _, ok := c3.Get("after-recovery", stringCell); !ok {
		t.Error("record appended after recovery was lost")
	}
}

// A flipped byte inside a record fails its checksum; replay keeps the
// records before it and truncates from the corruption on — including
// any records after it, per the first-bad-record rule.
func TestPersistCorruptRecordTruncatesTail(t *testing.T) {
	path := tmpCachePath(t)
	c, _ := mustOpen(t, path)
	fillCache(t, c, 3)
	sizeAfter3, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	fillCache(t, c, 6) // keys 0..5: three more records appended
	c.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of record 4 (the first record past offset
	// sizeAfter3, skipping its frame).
	raw[sizeAfter3.Size()+frameLen+3] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	c2, info := mustOpen(t, path)
	defer c2.Close()
	if info.Entries != 3 || !info.Truncated {
		t.Fatalf("corrupt-record recovery = %+v, want 3 entries with truncation", info)
	}
	if !strings.Contains(info.Reason, "checksum") {
		t.Errorf("recovery reason %q does not mention the checksum", info.Reason)
	}
	if _, ok := c2.Get("key-0002", stringCell); !ok {
		t.Error("intact record before the corruption was dropped")
	}
	if c2.Contains("key-0004") || c2.Contains("key-0005") {
		t.Error("records after the corruption survived; replay must stop at the first bad record")
	}
}

// A file shorter than the header (killed during creation) is reset; a
// full-length header that is not ours is refused, not destroyed.
func TestPersistHeaderEdgeCases(t *testing.T) {
	short := tmpCachePath(t)
	if err := os.WriteFile(short, []byte("suss"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, info := mustOpen(t, short)
	if !info.Truncated || info.DroppedBytes != 4 {
		t.Errorf("torn-header recovery = %+v, want 4 dropped bytes", info)
	}
	putString(c, "k", "v")
	c.Close()
	c2, info2 := mustOpen(t, short)
	if info2.Entries != 1 || info2.Truncated {
		t.Errorf("reopen after torn-header reset = %+v, want 1 clean entry", info2)
	}
	c2.Close()

	alien := filepath.Join(t.TempDir(), "notours.log")
	if err := os.WriteFile(alien, []byte("definitely not a sussd cache file\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := NewPersistentCache(alien); err == nil {
		t.Fatal("opening a non-cache file succeeded; want a bad-magic refusal")
	}
	raw, err := os.ReadFile(alien)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != "definitely not a sussd cache file\n" {
		t.Error("refused file was modified")
	}
}

// Re-putting an identical entry must not grow the file: the content
// address guarantees the bytes match, so the append is skipped.
func TestPersistDuplicatePutNotReappended(t *testing.T) {
	path := tmpCachePath(t)
	c, _ := mustOpen(t, path)
	putString(c, "dup", "value")
	st1, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	putString(c, "dup", "value")
	st2, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Size() != st1.Size() {
		t.Fatalf("duplicate Put grew the log %d → %d bytes", st1.Size(), st2.Size())
	}
	c.Close()
	c2, info := mustOpen(t, path)
	defer c2.Close()
	if info.Entries != 1 {
		t.Fatalf("recovery found %d entries, want 1", info.Entries)
	}
}

// An implausible length field (random garbage where a frame should
// be) truncates instead of attempting a huge allocation.
func TestPersistImplausibleLengthTruncates(t *testing.T) {
	path := tmpCachePath(t)
	c, _ := mustOpen(t, path)
	fillCache(t, c, 2)
	c.Close()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	garbage := make([]byte, frameLen+16)
	binary.BigEndian.PutUint32(garbage[:4], 1<<31) // 2 GiB "record"
	if _, err := f.Write(garbage); err != nil {
		t.Fatal(err)
	}
	f.Close()

	c2, info := mustOpen(t, path)
	defer c2.Close()
	if info.Entries != 2 || !info.Truncated {
		t.Fatalf("recovery = %+v, want 2 entries with truncation", info)
	}
	if !strings.Contains(info.Reason, "implausible") {
		t.Errorf("recovery reason %q does not mention the length", info.Reason)
	}
}

// A cache file written in another sussdcache format version is ours
// but dead: its keys hash a config shape the current code no longer
// renders. Startup resets it to an empty current-version log and says
// why in /v1/stats instead of replaying records nothing can hit.
func TestPersistOtherFormatVersionResets(t *testing.T) {
	path := tmpCachePath(t)
	c, _ := mustOpen(t, path)
	fillCache(t, c, 5)
	c.Close()
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("sussdcache/1\n"), 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	size := fileSize(t, path)

	s, cl := newServerClient(t, Config{Workers: 1, CacheFile: path})
	st := cl.stats()
	if st.CacheReplayed != 0 || st.CacheDroppedBytes != size {
		t.Errorf("stats replayed=%d dropped=%d, want 0 replayed and all %d bytes dropped",
			st.CacheReplayed, st.CacheDroppedBytes, size)
	}
	if !strings.Contains(st.CacheDropReason, "sussdcache/1") || !strings.Contains(st.CacheDropReason, "superseded") {
		t.Errorf("cache_drop_reason %q does not name the superseded format", st.CacheDropReason)
	}
	drain(t, s)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != cacheMagic {
		t.Fatalf("reset file holds %q, want just the %q header", raw, cacheMagic)
	}

	c2, info := mustOpen(t, path)
	defer c2.Close()
	if info.Entries != 0 || info.Truncated {
		t.Errorf("reopen after reset = %+v, want an empty clean log", info)
	}
	if _, ok := c2.Get("key-0000", stringCell); ok {
		t.Error("a record from the superseded format was served")
	}
}

// cacheFormats maps every cache header version ever shipped to the
// digest of the service's sweep keys under it (three fig11 and three
// fleet seeds; see sweepKeysDigest). Entries are history: when a
// change moves the keys, bump cacheMagic and add a line — never edit
// one — so a file written under old keys is reset, not replayed.
var cacheFormats = map[string]string{
	"sussdcache/1\n": "a601f2bdaaeb155cf3fe7000d7f49b12cb55802f4637d5048dd46b60e7c0c367",
	"sussdcache/2\n": "b5416e958a485f301685c6ec6d7ef68cacb06cb273405b925d6f921d9bdb31a2",
}

func sweepKeysDigest(t *testing.T) string {
	t.Helper()
	h := sha256.New()
	for seed := int64(1); seed <= 3; seed++ {
		for _, j := range experiments.Fig11Jobs(scenarios.GoogleTokyo, experiments.DefaultSizes, 3, seed) {
			k, err := confhash.JobKey(j)
			if err != nil {
				t.Fatal(err)
			}
			io.WriteString(h, k+"\n")
		}
		fc := experiments.DefaultFleetConfig(seed)
		for _, j := range experiments.FleetJobs(fc) {
			for shard := 0; shard < fc.Shards; shard++ {
				j.Shard = shard
				k, err := confhash.FleetKey(j)
				if err != nil {
					t.Fatal(err)
				}
				io.WriteString(h, k+"\n")
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// The cache header and the keys it indexes move together: keys that
// changed under an unchanged header would turn every persisted record
// into a silent miss (or, worse, a stale hit).
func TestCacheMagicPinsKeyDigest(t *testing.T) {
	want, ok := cacheFormats[cacheMagic]
	if !ok {
		t.Fatalf("cacheMagic %q has no entry in cacheFormats", cacheMagic)
	}
	if got := sweepKeysDigest(t); got != want {
		t.Fatalf("sweep key digest %s under %q, pinned %s: the cache keys moved — bump cacheMagic and add the new pair to cacheFormats",
			got, cacheMagic, want)
	}
}
