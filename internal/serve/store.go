// Package serve promotes the batch simulator into a serving system: a
// long-running daemon state machine (Server) that admits and evicts
// tenants over HTTP, each admission decided by one memoized replay of
// n+1 suite tenants (n the live count) against a contention SLO,
// re-simulates the live population in a background replay loop on every
// membership change, and persists every admission decision to an
// append-only JSONL audit log (Store) so a restarted daemon recovers its
// tenant set. The cmd/lbad command is the thin binary around it.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// AuditEntry is one durable admission decision. The log is the daemon's
// source of truth: replaying admit/evict entries in sequence order
// reconstructs the live tenant set (see Server recovery), so every field
// a reconstruction needs rides on the admit entry itself. Reject entries
// are evidence, not state — recovery skips them.
type AuditEntry struct {
	Seq  uint64 `json:"seq"`
	Time string `json:"time"` // RFC3339Nano; metadata only, never replayed
	Op   string `json:"op"`   // admit | reject | evict

	// Tenant identity (admit/evict; rejects carry only the query echo).
	TenantID  int    `json:"tenant_id,omitempty"`
	Name      string `json:"name,omitempty"`
	Benchmark string `json:"benchmark,omitempty"`
	Seed      uint64 `json:"seed,omitempty"`
	// Draw is 1 + the suite round-robin draw the tenant consumed, 0 for
	// explicit-benchmark admissions: recovery must restore the draw
	// cursor so post-restart admissions continue the same round-robin
	// sequence the admission check replays.
	Draw int `json:"draw,omitempty"`

	// The live admission decision that produced this entry: the worst
	// contention factor the first Population+1 suite draws measured.
	// Logs written with the older planner band fields still decode; the
	// unknown fields are ignored.
	SLO         float64 `json:"slo,omitempty"`
	Population  int     `json:"population,omitempty"` // live tenants when the query ran
	ContentionX float64 `json:"contention_x,omitempty"`
}

// auditFile is the audit log's name under the store directory.
const auditFile = "audit.jsonl"

// logFile is what the store needs of its open log; an *os.File in
// production, a file that fails on demand in tests.
type logFile interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
	Close() error
}

// Store is the daemon's durable state: an append-only JSONL audit log
// plus a directory for replaceable artifacts (the latest pool snapshot).
// Appends are synced before they return, so an entry the caller has seen
// acknowledged survives kill -9; a torn final line (the crash landed
// mid-write) is truncated away on the next Open, which is exactly the
// "decision was never acknowledged" semantics an append-only log wants.
// The store keeps only a count of its entries: the log on disk is the
// record, and the daemon folds it into its live set once, at recovery.
//
// A failed append leaves the log as it was: the store truncates back to
// the end of the last acknowledged entry. A failed sync also poisons the
// store, because after a failed fsync the kernel may have dropped the
// dirty pages and a later sync would report success for data that never
// reached the disk; every later append fails.
type Store struct {
	mu       sync.Mutex
	dir      string
	f        logFile
	info     os.FileInfo // f's identity, for checkLinked
	size     int64       // end of the last acknowledged entry
	poisoned error       // set once a sync or a rollback fails
	count    int
	nextSeq  uint64
	now      func() time.Time
}

// Open recovers the store under dir, creating the directory and an empty
// log as needed. A final line without its newline is discarded and
// truncated (interrupted append); a malformed line anywhere earlier is
// corruption and fails the open.
func Open(dir string) (*Store, error) {
	s, _, err := open(dir)
	return s, err
}

// open is Open handing back the recovered entries as well, for the one
// caller that folds them into state (Server recovery).
func open(dir string) (*Store, []AuditEntry, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	path := filepath.Join(dir, auditFile)
	entries, valid, err := readLog(path)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, nil, err
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	s := &Store{dir: dir, f: f, info: info, size: valid, count: len(entries), nextSeq: 1, now: time.Now}
	if n := len(entries); n > 0 {
		s.nextSeq = entries[n-1].Seq + 1
	}
	return s, entries, nil
}

// readLog parses the audit log at path, returning its entries and the
// length of the prefix they occupy. A missing log is empty; a final line
// without its newline is a torn tail and is left out of both; a
// malformed line before it is corruption.
func readLog(path string) ([]AuditEntry, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, 0, err
	}
	var entries []AuditEntry
	valid := 0
	for valid < len(data) {
		nl := bytes.IndexByte(data[valid:], '\n')
		if nl < 0 {
			break // torn tail: the append never completed, drop it
		}
		line := data[valid : valid+nl]
		if len(bytes.TrimSpace(line)) > 0 {
			var e AuditEntry
			if err := json.Unmarshal(line, &e); err != nil {
				return nil, 0, fmt.Errorf("serve: audit log %s corrupt at byte %d: %w", path, valid, err)
			}
			entries = append(entries, e)
		}
		valid += nl + 1
	}
	return entries, int64(valid), nil
}

// Dir reports the store directory.
func (s *Store) Dir() string { return s.dir }

// Append stamps the entry with the next sequence number and the current
// time, writes it as one JSONL line and syncs before returning: an
// acknowledged decision is on disk. It fails closed: if the log's path no
// longer names the open file (the data directory was removed or the log
// replaced under the daemon), nothing is written, because an entry that
// lands only in an unlinked file is lost on restart. A write or sync
// error rolls the log back to its last acknowledged entry; a sync error
// poisons the store (see Store).
func (s *Store) Append(e AuditEntry) (AuditEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return e, fmt.Errorf("serve: store is closed")
	}
	if s.poisoned != nil {
		return e, s.poisoned
	}
	if err := s.checkLinked(); err != nil {
		return e, err
	}
	e.Seq = s.nextSeq
	e.Time = s.now().UTC().Format(time.RFC3339Nano)
	line, err := json.Marshal(e)
	if err != nil {
		return e, err
	}
	line = append(line, '\n')
	if _, err := s.f.Write(line); err != nil {
		return e, s.rollback(err)
	}
	if err := s.f.Sync(); err != nil {
		s.poisoned = fmt.Errorf("serve: audit log sync failed, store refuses appends: %w", err)
		return e, s.rollback(s.poisoned)
	}
	s.size += int64(len(line))
	s.nextSeq++
	s.count++
	return e, nil
}

// rollback truncates the log back to the last acknowledged entry after
// a failed append and returns the append's error. If the log cannot be
// put back, the store is poisoned. Callers hold s.mu.
func (s *Store) rollback(cause error) error {
	err := s.f.Truncate(s.size)
	if err == nil {
		_, err = s.f.Seek(s.size, io.SeekStart)
	}
	if err != nil && s.poisoned == nil {
		s.poisoned = fmt.Errorf("serve: audit log rollback failed, store refuses appends: %w", err)
	}
	return cause
}

// checkLinked reports an error unless the log's path still names the
// open file. Callers hold s.mu.
func (s *Store) checkLinked() error {
	path := filepath.Join(s.dir, auditFile)
	named, err := os.Stat(path)
	if err != nil {
		return fmt.Errorf("serve: audit log is gone: %w", err)
	}
	if !os.SameFile(s.info, named) {
		return fmt.Errorf("serve: %s no longer names the open audit log", path)
	}
	return nil
}

// Entries reads every entry of the log back from disk, in sequence
// order, for audits of a store's history; it returns nil if the log
// cannot be read. The daemon itself never calls it.
func (s *Store) Entries() []AuditEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	entries, _, err := readLog(filepath.Join(s.dir, auditFile))
	if err != nil {
		return nil
	}
	return entries
}

// Len reports the number of durable entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// WriteArtifact atomically replaces an auxiliary JSON artifact (the
// latest pool snapshot, say) under the store directory: the temp file is
// synced before the rename and the directory after it, so a crash leaves
// either the old artifact or the whole new one.
func (s *Store) WriteArtifact(name string, v any) error {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, name+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(append(blob, '\n'))
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(s.dir, name))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	dir, err := os.Open(s.dir)
	if err != nil {
		return err
	}
	err = dir.Sync()
	if cerr := dir.Close(); err == nil {
		err = cerr
	}
	return err
}

// Close syncs and releases the log file. Further Appends fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Sync()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}
