package serve

import (
	"context"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// faultyFile is the store's log with faults injected on demand: a short
// write puts half the bytes on disk and fails, a failed sync fails after
// the write went through.
type faultyFile struct {
	*os.File
	shortWrites int // fail this many writes, half-written
	failSyncs   int // fail this many syncs
}

var errInjected = errors.New("injected fault")

func (f *faultyFile) Write(b []byte) (int, error) {
	if f.shortWrites > 0 {
		f.shortWrites--
		n, _ := f.File.Write(b[:len(b)/2])
		return n, errInjected
	}
	return f.File.Write(b)
}

func (f *faultyFile) Sync() error {
	if f.failSyncs > 0 {
		f.failSyncs--
		return errInjected
	}
	return f.File.Sync()
}

// A failed append leaves no trace in the log: a short write is truncated
// away, so the next append lands where it should and the log reopens; a
// failed sync poisons the store, so nothing after it is acknowledged.
// Reopening recovers exactly the acknowledged entries.
func TestStoreAppendRollsBackFailures(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	f := &faultyFile{File: s.f.(*os.File)}
	s.f = f
	var acked []AuditEntry
	appendEntry := func(name string) error {
		e, err := s.Append(AuditEntry{Op: "admit", TenantID: len(name), Name: name, Benchmark: "gzip"})
		if err == nil {
			acked = append(acked, e)
		}
		return err
	}

	if err := appendEntry("first"); err != nil {
		t.Fatal(err)
	}
	f.shortWrites = 1
	if err := appendEntry("torn"); !errors.Is(err, errInjected) {
		t.Fatalf("append over a short write: %v, want the injected fault", err)
	}
	if err := appendEntry("after-short-write"); err != nil {
		t.Fatalf("append after a rolled-back short write: %v", err)
	}
	f.failSyncs = 1
	if err := appendEntry("unsynced"); !errors.Is(err, errInjected) {
		t.Fatalf("append over a failed sync: %v, want the injected fault", err)
	}
	if err := appendEntry("after-failed-sync"); err == nil || !strings.Contains(err.Error(), "sync failed") {
		t.Fatalf("append to a poisoned store: %v, want the sync failure", err)
	}
	if s.Len() != 2 {
		t.Errorf("store counts %d entries, want the 2 acknowledged", s.Len())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(filepath.Join(dir, auditFile))
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines != 2 || !strings.HasSuffix(string(data), "\n") {
		t.Errorf("log holds %d lines and ends %q; want the 2 acknowledged entries and nothing after", lines, data[len(data)-1:])
	}
	s, entries, err := open(dir)
	if err != nil {
		t.Fatalf("reopening after failed appends: %v", err)
	}
	defer s.Close()
	if !reflect.DeepEqual(entries, acked) {
		t.Errorf("recovered %+v, want the acknowledged %+v", entries, acked)
	}
	if acked[1].Seq != 2 {
		t.Errorf("the append after a failed one took seq %d, want 2", acked[1].Seq)
	}
}

// After a failed audit sync the daemon acknowledges nothing: the
// admission that hit the fault and every one after it answer 500, and
// none of them is counted.
func TestAdmitFailsAfterAuditSyncFailure(t *testing.T) {
	srv, ts := startServer(t, testConfig(), t.TempDir())
	defer srv.Shutdown(context.Background())
	waitIdle(t, srv)

	srv.store.mu.Lock()
	srv.store.f = &faultyFile{File: srv.store.f.(*os.File), failSyncs: 1}
	srv.store.mu.Unlock()
	for i := 0; i < 2; i++ {
		resp := postJSON(t, ts.URL+"/v1/tenants", "")
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("admit %d after a failed sync: status %d, want 500", i, resp.StatusCode)
		}
		if er := decode[ErrorResponse](t, resp); !strings.Contains(er.Error, "persisting admission") {
			t.Errorf("500 error %q does not say persisting admission", er.Error)
		}
	}
	if m := getMetrics(t, ts.URL); !strings.Contains(m, "lbad_admitted_total 0\n") || !strings.Contains(m, "lbad_audit_records 0\n") {
		t.Errorf("an unpersisted admission was counted:\n%s", m)
	}
}
