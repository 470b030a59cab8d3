package serve

import (
	"bytes"
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

// TestAuditLogCrashPointSweep kills the audit log at every byte offset:
// a crash can leave any prefix of audit.jsonl on disk. At each offset
// Open recovers exactly the entries whose newline the prefix holds, cuts
// the file back to the end of the last of them, and numbers the next
// append one past it; New folds the same live set, so a torn tail never
// turns into state.
func TestAuditLogCrashPointSweep(t *testing.T) {
	src := t.TempDir()
	s, err := Open(src)
	if err != nil {
		t.Fatal(err)
	}
	var written []AuditEntry
	for _, e := range []AuditEntry{
		{Op: "admit", TenantID: 1, Name: "t1-gzip", Benchmark: "gzip", Seed: 1, Draw: 1, SLO: 10, ContentionX: 1},
		{Op: "admit", TenantID: 2, Name: "t2-mcf", Benchmark: "mcf", Seed: 2, Draw: 2, SLO: 10, Population: 1, ContentionX: 1.5},
		{Op: "reject", SLO: 10, Population: 2, ContentionX: 12.5},
		{Op: "evict", TenantID: 1, Name: "t1-gzip", Benchmark: "gzip", Seed: 1},
		{Op: "admit", TenantID: 3, Name: "t3-bc", Benchmark: "bc", Seed: 3, SLO: 10, Population: 1, ContentionX: 2},
		{Op: "evict", TenantID: 2, Name: "t2-mcf", Benchmark: "mcf", Seed: 2},
	} {
		got, err := s.Append(e)
		if err != nil {
			t.Fatal(err)
		}
		written = append(written, got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(filepath.Join(src, auditFile))
	if err != nil {
		t.Fatal(err)
	}
	var ends []int // ends[i]: the offset just past entry i's newline
	for i, b := range full {
		if b == '\n' {
			ends = append(ends, i+1)
		}
	}
	if len(ends) != len(written) {
		t.Fatalf("log holds %d lines for %d appends", len(ends), len(written))
	}

	cfg := testConfig()
	cfg.Scale, cfg.Workers = 2_000, 1
	dir := t.TempDir()
	path := filepath.Join(dir, auditFile)
	crash := func(k int) {
		t.Helper()
		if err := os.WriteFile(path, full[:k], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k <= len(full); k++ {
		n, valid := 0, 0
		for n < len(ends) && ends[n] <= k {
			valid = ends[n]
			n++
		}
		want := written[:n]

		crash(k)
		st, got, err := open(dir)
		if err != nil {
			t.Fatalf("offset %d: Open: %v", k, err)
		}
		if len(got) != n || (n > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("offset %d: recovered %d entries, want the %d whose newline the prefix holds", k, len(got), n)
		}
		if info, err := os.Stat(path); err != nil || info.Size() != int64(valid) {
			t.Fatalf("offset %d: log not cut back to the %d-byte prefix (stat %v, %v)", k, valid, info, err)
		}
		next, err := st.Append(AuditEntry{Op: "reject", SLO: 10})
		if err != nil {
			t.Fatalf("offset %d: Append: %v", k, err)
		}
		if next.Seq != uint64(n)+1 {
			t.Fatalf("offset %d: next append took seq %d, want %d", k, next.Seq, n+1)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if data, err := os.ReadFile(path); err != nil || !bytes.HasPrefix(data, full[:valid]) ||
			bytes.Count(data, []byte("\n")) != n+1 {
			t.Fatalf("offset %d: the append did not land right after the recovered prefix:\n%s", k, data)
		}

		crash(k)
		srv, err := New(cfg, dir)
		if err != nil {
			t.Fatalf("offset %d: New: %v", k, err)
		}
		wantOrder, wantBench := foldAudit(want)
		srv.mu.Lock()
		order := append([]int{}, srv.order...)
		bench := map[int]string{}
		for id, lt := range srv.live {
			bench[id] = lt.tn.Benchmark
		}
		nextID, draws := srv.nextID, srv.draws
		srv.mu.Unlock()
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // no need to wait out the recovery replay
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(order, wantOrder) || !reflect.DeepEqual(bench, wantBench) {
			t.Fatalf("offset %d: New folded live set %v %v, want %v %v", k, order, bench, wantOrder, wantBench)
		}
		wantNext, wantDraws := 1, 0
		for _, e := range want {
			if e.Op == "admit" {
				wantNext = max(wantNext, e.TenantID+1)
				wantDraws = max(wantDraws, e.Draw)
			}
		}
		if nextID != wantNext || draws != wantDraws {
			t.Fatalf("offset %d: New resumed id %d / draw %d, want %d / %d", k, nextID, draws, wantNext, wantDraws)
		}
	}
}

// foldAudit is the live set a sequence of audit entries describes, in
// admission order, with each live tenant's benchmark: the test's oracle
// for Server recovery.
func foldAudit(entries []AuditEntry) ([]int, map[int]string) {
	order, bench := []int{}, map[int]string{}
	for _, e := range entries {
		switch e.Op {
		case "admit":
			order = append(order, e.TenantID)
			bench[e.TenantID] = e.Benchmark
		case "evict":
			delete(bench, e.TenantID)
			for i, id := range order {
				if id == e.TenantID {
					order = append(order[:i], order[i+1:]...)
					break
				}
			}
		}
	}
	return order, bench
}
