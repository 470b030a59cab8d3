# Local mirror of .github/workflows/ci.yml: `make ci` runs what CI runs.

GO ?= go

.PHONY: build loc test race fuzz bench harness fmt vet docs daemon-smoke ci

build:
	$(GO) build ./...

# Non-test Go lines, perfbench/ excluded: the size every change reports
# its net effect against.
loc:
	@git ls-files -z --cached --others --exclude-standard -- '*.go' ':!:*_test.go' ':!:perfbench/**' | xargs -0 cat | wc -l

test:
	$(GO) test ./...
	$(GO) test -run 'Invariant|Property' -count=2 ./internal/tenant
	$(GO) test -race -count=2 -run 'VPCGolden|BitWriter|MemoryPage|ProfileAllocs|CompressorReset|PredictorBank' ./internal/vpc ./internal/mem ./internal/shadow ./internal/core

race:
	$(GO) test -race ./...
	$(GO) test -race -count=1 ./internal/tenant/...
	$(GO) test -race -count=1 ./internal/serve
	$(GO) test -race -count=10 -run 'Cancel|Admission' ./internal/tenant ./internal/serve
	$(GO) test -race -count=1 -run 'TestSched|TestReplayInvariants|TestPlanAdmission|TestWFQ|TestPriority|TestDeadline|TestAffinity|TestChurn|TestPropertyBisection|TestApplyChurn|TestPeakConcurrency|TestSharded|TestShardPlan|TestStreaming|TestTimelineRoundTrip|TestStepCursorWindows|TestWindowRingRecycle|TestRecorderWidthContract|FuzzSegmentCodec|TestRetireShortcutMatchesWalk' ./internal/tenant

fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzTraceRoundTrip$$' -fuzztime 10s ./internal/vpc
	$(GO) test -run '^$$' -fuzz '^FuzzDecompressTrace$$' -fuzztime 10s ./internal/vpc
	$(GO) test -run '^$$' -fuzz '^FuzzRecordRoundTrip$$' -fuzztime 10s ./internal/event
	$(GO) test -run '^FuzzReplayInvariants$$' ./internal/tenant
	$(GO) test -run '^TestChurnCorpusSeeds$$' ./internal/tenant
	$(GO) test -run '^$$' -fuzz '^FuzzReplayInvariants$$' -fuzztime 10s ./internal/tenant
	$(GO) test -run '^FuzzSegmentCodec$$' ./internal/tenant
	$(GO) test -run '^$$' -fuzz '^FuzzSegmentCodec$$' -fuzztime 10s ./internal/tenant

docs:
	@diff=$$(gofmt -l examples internal/tenant/example_test.go); \
	if [ -n "$$diff" ]; then \
		echo "example files need gofmt:" >&2; echo "$$diff" >&2; exit 1; \
	fi
	@missing=0; \
	for doc in docs/architecture.md docs/performance.md docs/harness.md docs/daemon.md; do \
	for pkg in $$(grep -oE '(internal|cmd)/[a-z0-9/]+' $$doc | sed 's:/$$::' | sort -u); do \
		if [ ! -d "$$pkg" ] && [ ! -f "$$pkg" ]; then \
			echo "$$doc references missing package: $$pkg" >&2; missing=1; \
		fi; \
	done; done; exit $$missing
	@grep -q 'docs/architecture.md' README.md
	@grep -q 'docs/performance.md' README.md
	@grep -q 'docs/harness.md' README.md
	@grep -q 'docs/daemon.md' README.md
	@$(GO) doc ./internal/tenant | grep -qi 'scheduler'
	@for doc in docs/performance.md docs/harness.md docs/daemon.md; do \
	awk '/^```go$$/{buf="package docsnippet\n\n"; in_go=1; next} \
		/^```$$/{if (in_go) {printf "%s", buf > "/tmp/docsnippet.go"; close("/tmp/docsnippet.go"); \
		if (system("gofmt /tmp/docsnippet.go > /tmp/docsnippet.fmt && cmp -s /tmp/docsnippet.go /tmp/docsnippet.fmt") != 0) \
			{print FILENAME ": fenced Go block ending at line " NR " is not gofmt-clean" > "/dev/stderr"; bad=1}} \
		in_go=0; next} in_go{buf=buf $$0 "\n"} END{exit bad}' $$doc || exit 1; \
	done

bench:
	BENCH_JSON=BENCH_results.json $(GO) test -run '^$$' -bench=. -benchtime=1x ./...
	$(GO) run ./cmd/lbabench -n 150000 -json BENCH_lbabench.json
	$(GO) run ./cmd/lbabench -n 40000 -fig churn -tenants 4 -pool 2 -seeds 2 -json BENCH_churn.json
	@grep -q '"churn"' BENCH_churn.json && grep -q '"peak_concurrency"' BENCH_churn.json
	$(GO) run ./cmd/lbabench -bench replay -json BENCH_replay.ci.json -diff-schema BENCH_replay.json
	@grep -q '"lba-bench-replay/v2"' BENCH_replay.ci.json && grep -q '"speedup_x"' BENCH_replay.ci.json
	@grep -q '"sharded"' BENCH_replay.ci.json && grep -q '"shards": 4' BENCH_replay.ci.json
	@grep -q '"streaming"' BENCH_replay.ci.json && grep -q '"peak_heap_bytes"' BENCH_replay.ci.json

harness:
	GOMEMLIMIT=256MiB $(GO) run ./cmd/lbaharness -runlist corpus/runlist.csv -json HARNESS_corpus.json -artifacts harness-artifacts
	@grep -q '"lba-harness/v1"' HARNESS_corpus.json && grep -q '"failed": 0' HARNESS_corpus.json
	@grep -q '"lba-harness-artifact/v1"' harness-artifacts/uaf-bc.json
	@grep -q '"lba-harness-artifact/v1"' harness-artifacts/pool-large-trace.json

fmt:
	@diff=$$(gofmt -l .); \
	if [ -n "$$diff" ]; then \
		echo "files need gofmt:" >&2; echo "$$diff" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...

# The lbad daemon end to end: start it against a scratch data dir, admit
# two suite tenants and evict one through the admin CLI, read the status
# endpoints, then SIGTERM it and require a clean exit and a non-empty
# audit log.
daemon-smoke:
	$(GO) build -o /tmp/lbad-smoke-bin ./cmd/lbad
	@set -e; \
	DATA=$$(mktemp -d); ADDR=127.0.0.1:8391; \
	/tmp/lbad-smoke-bin -addr $$ADDR -data $$DATA -pool 2 -slo 10 -scale 20000 & \
	PID=$$!; \
	for i in $$(seq 1 100); do \
		curl -sf http://$$ADDR/v1/pool > /dev/null 2>&1 && break; sleep 0.1; \
	done; \
	/tmp/lbad-smoke-bin admit -addr $$ADDR; \
	/tmp/lbad-smoke-bin admit -addr $$ADDR; \
	/tmp/lbad-smoke-bin status -addr $$ADDR; \
	curl -sf http://$$ADDR/v1/tenants | grep -q '"state": "admitted"'; \
	curl -sf http://$$ADDR/v1/metrics | grep -q '^lbad_admitted_total 2$$'; \
	/tmp/lbad-smoke-bin evict -addr $$ADDR 1; \
	kill -TERM $$PID; \
	wait $$PID; \
	test -s $$DATA/audit.jsonl; \
	grep -q '"op":"admit"' $$DATA/audit.jsonl; \
	grep -q '"op":"evict"' $$DATA/audit.jsonl; \
	grep -q '"contention_x":' $$DATA/audit.jsonl; \
	rm -rf $$DATA /tmp/lbad-smoke-bin; \
	echo "daemon-smoke: OK"

ci: fmt vet build loc test race docs fuzz bench harness daemon-smoke
