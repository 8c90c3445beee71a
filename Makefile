# Convenience entry points; everything is ordinary dune underneath.

.PHONY: all check test examples bench bench-smoke verify-smoke telemetry-smoke recovery-smoke group-smoke serve-smoke stream-smoke topology-smoke churn-smoke clean

all: check

# Tier-1 gate: full build + every test suite, each in full (the smoke
# targets below add CLI differentials and bench gates, not test reruns).
check:
	dune build
	dune runtest

test: check

# Run every example end to end; any non-zero exit fails the target.
examples:
	dune build @examples/all
	@set -e; for e in quickstart healthcare_collab baseline_faceoff norm_check_tour attack_audit; do \
	  echo "== $$e"; ./_build/default/examples/$$e.exe; \
	done

# Full benchmark sweep (slow); mirrors EXPERIMENTS.md.
bench:
	dune exec bench/main.exe 2>&1 | tee bench_output.txt

# Tiny-size smoke run of the parallel micro-benchmarks; asserts that the
# machine-readable results file is actually emitted and non-trivial.
bench-smoke:
	rm -f BENCH_RISEFL.json
	dune exec bench/main.exe -- micro --smoke --jobs 2
	@test -s BENCH_RISEFL.json || { echo "bench-smoke: BENCH_RISEFL.json missing or empty" >&2; exit 1; }
	@grep -q '"results"' BENCH_RISEFL.json || { echo "bench-smoke: no results array in BENCH_RISEFL.json" >&2; exit 1; }
	@grep -q '"name": "msm-full"' BENCH_RISEFL.json || { echo "bench-smoke: expected msm-full records" >&2; exit 1; }
	@echo "bench-smoke: BENCH_RISEFL.json OK ($$(grep -c '"target"' BENCH_RISEFL.json) records)"

# Batched-verifier gate: the verify bench smoke point — the build fails
# if verify_proofs falls below a 2x jobs=1 speedup over the naive
# reference.
verify-smoke:
	dune exec bench/main.exe -- verify --smoke --json /tmp/verify-smoke.json --gate-verify 2.0

# Telemetry gate: a traced round over a faulty transport must emit a
# snapshot carrying every counter family plus per-stage spans, and the
# measured per-stage group-exponentiation counts must sit inside the
# documented tolerance bands around the Cost_model (Table 1) predictions.
telemetry-smoke:
	rm -f /tmp/risefl-trace.json
	dune exec bin/risefl_cli.exe -- round --clients 3 --dimension 32 -k 4 \
	  --faults 'drop=0.05,flip=0.02' --trace /tmp/risefl-trace.json
	@test -s /tmp/risefl-trace.json || { echo "telemetry-smoke: trace file missing or empty" >&2; exit 1; }
	@for key in point.add msm.evals sha256.blocks drbg.bytes wire.commit.bytes net.sent '"spans"'; do \
	  grep -q "$$key" /tmp/risefl-trace.json || { echo "telemetry-smoke: $$key missing from trace" >&2; exit 1; }; \
	done
	@echo "telemetry-smoke: trace OK"
	dune exec bench/main.exe -- table1 --smoke --gate-table1

# Durability gate: a real crash/resume cycle through the CLI — kill the
# server mid-proof with the write-ahead log armed, run `round` again on
# the same log in a second process (it resumes the interrupted round on
# entry), and require the recovered aggregate and C* to be byte-identical to an
# uncrashed run of the same seed. Finishes with the recovery bench smoke
# (WAL bytes/round, fsyncs, wall-clock overhead into the JSON).
recovery-smoke:
	rm -f /tmp/risefl-smoke.wal
	dune exec bin/risefl_cli.exe -- round --seed recovery-smoke \
	  --wal /tmp/risefl-smoke.wal --crash proof:1 --no-recover | tee /tmp/risefl-crash.txt
	@grep -q "server crashed at proof:1" /tmp/risefl-crash.txt \
	  || { echo "recovery-smoke: planned crash did not fire" >&2; exit 1; }
	dune exec bin/risefl_cli.exe -- round --seed recovery-smoke \
	  --wal /tmp/risefl-smoke.wal | tee /tmp/risefl-resumed.txt
	dune exec bin/risefl_cli.exe -- round --seed recovery-smoke | tee /tmp/risefl-ref.txt
	@grep -E "flagged|aggregate" /tmp/risefl-ref.txt > /tmp/risefl-ref-key.txt
	@grep -E "flagged|aggregate" /tmp/risefl-resumed.txt > /tmp/risefl-resumed-key.txt
	@diff /tmp/risefl-ref-key.txt /tmp/risefl-resumed-key.txt \
	  || { echo "recovery-smoke: resumed round diverged from the uncrashed run" >&2; exit 1; }
	@echo "recovery-smoke: crash/resume bit-identical"
	dune exec bench/main.exe -- recovery --smoke --json /tmp/recovery-smoke.json
	@grep -q '"name": "wal-bytes-per-round"' /tmp/recovery-smoke.json \
	  || { echo "recovery-smoke: WAL overhead records missing from bench JSON" >&2; exit 1; }

# Group-layer gate: the group bench smoke — the build fails if the
# warm-cache precompute speedup falls below 2x over a cold build, or if the
# range-prove, msm-crossover (Straus, Pippenger, fixed tables),
# ipa-prove (fold and table prover) or fe-kernel (per-op field/point
# cost, table and comb multiply and build) records are missing.
group-smoke:
	dune exec bench/main.exe -- group --smoke --json /tmp/group-smoke.json --gate-group 2.0
	@grep -q '"name": "precompute-speedup"' /tmp/group-smoke.json \
	  || { echo "group-smoke: precompute records missing from bench JSON" >&2; exit 1; }
	@grep -q '"name": "range-prove@' /tmp/group-smoke.json \
	  || { echo "group-smoke: range-prove records missing from bench JSON" >&2; exit 1; }
	@grep -q '"name": "msm-crossover-straus"' /tmp/group-smoke.json \
	  && grep -q '"name": "msm-crossover-pippenger"' /tmp/group-smoke.json \
	  && grep -q '"name": "msm-crossover-fixed"' /tmp/group-smoke.json \
	  || { echo "group-smoke: msm-crossover records missing from bench JSON" >&2; exit 1; }
	@grep -q '"name": "ipa-prove@[0-9]*/fold"' /tmp/group-smoke.json \
	  && grep -q '"name": "ipa-prove@[0-9]*/table"' /tmp/group-smoke.json \
	  || { echo "group-smoke: ipa-prove records missing from bench JSON" >&2; exit 1; }
	@grep -q '"name": "fe-kernel/fe.mul-ns"' /tmp/group-smoke.json \
	  && grep -q '"name": "fe-kernel/fe.invert-ns"' /tmp/group-smoke.json \
	  && grep -q '"name": "fe-kernel/point.mul-ns"' /tmp/group-smoke.json \
	  && grep -q '"name": "fe-kernel/point.table_mul-ns"' /tmp/group-smoke.json \
	  && grep -q '"name": "fe-kernel/point.table_build-ns"' /tmp/group-smoke.json \
	  && grep -q '"name": "fe-kernel/point.comb_mul-ns"' /tmp/group-smoke.json \
	  && grep -q '"name": "fe-kernel/point.comb_build-ns"' /tmp/group-smoke.json \
	  || { echo "group-smoke: fe-kernel records missing from bench JSON" >&2; exit 1; }
	@grep -q '"name": "scalar-kernel/scalar.mul-ns"' /tmp/group-smoke.json \
	  || { echo "group-smoke: scalar-kernel records missing from bench JSON" >&2; exit 1; }

# Deployment-transport gate: a real multi-process CLI
# walkthrough on a Unix socket with client 2 mounting the scaling
# attack — kill -9 the server mid-proof with the WAL armed, restart it
# on the same log while the clients ride through under backoff, and
# require the server and every client to match the in-process round's
# flagged/aggregate lines byte for byte. The server runs at its default
# stage deadline and waits the silent attacker out; the clients learn
# that deadline from the server's announcement and give up on a
# broadcast only after twice that long without a word from the server,
# so the restarted server's fresh wait does not outlast them. Finishes with the
# serve bench smoke (socket-loopback latency + transport counters into
# the JSON).
serve-smoke:
	dune build bin/risefl_cli.exe
	@set -e; \
	BIN=_build/default/bin/risefl_cli.exe; \
	DIR=/tmp/risefl-serve; rm -rf $$DIR; mkdir -p $$DIR; \
	ARGS="--clients 3 --dimension 16 --samples 4 --seed serve-smoke"; \
	$$BIN round $$ARGS --attackers 2 | grep -E "flagged|aggregate" > $$DIR/ref.txt; \
	for i in 1 2 3; do \
	  $$BIN client $$ARGS --attackers 2 --id $$i --connect unix:$$DIR/sock \
	    > $$DIR/client$$i.txt 2>&1 & \
	done; \
	$$BIN serve $$ARGS --listen unix:$$DIR/sock --wal $$DIR/wal --crash proof:1 \
	  > $$DIR/serve1.txt 2>&1 || true; \
	grep -q "server crashed at proof:1" $$DIR/serve1.txt \
	  || { echo "serve-smoke: planned crash did not fire" >&2; exit 1; }; \
	$$BIN serve $$ARGS --listen unix:$$DIR/sock --wal $$DIR/wal \
	  > $$DIR/serve2.txt 2>&1; \
	wait; \
	grep -q "recovered round 1 from the write-ahead log" $$DIR/serve2.txt \
	  || { echo "serve-smoke: restart did not resume from the WAL" >&2; exit 1; }; \
	grep -E "flagged|aggregate" $$DIR/serve2.txt > $$DIR/srv-key.txt; \
	diff $$DIR/ref.txt $$DIR/srv-key.txt \
	  || { echo "serve-smoke: restarted server diverged from the in-process round" >&2; exit 1; }; \
	for i in 1 2 3; do \
	  grep -E "flagged|aggregate" $$DIR/client$$i.txt > $$DIR/c$$i-key.txt; \
	  diff $$DIR/ref.txt $$DIR/c$$i-key.txt \
	    || { echo "serve-smoke: client $$i diverged across the crash" >&2; exit 1; }; \
	done; \
	echo "serve-smoke: crash/restart deployment bit-identical"
	dune exec bench/main.exe -- serve --smoke --json /tmp/serve-smoke.json
	@grep -q '"name": "loopback-round-s"' /tmp/serve-smoke.json \
	  || { echo "serve-smoke: transport records missing from bench JSON" >&2; exit 1; }

# Streaming-verification gate: the default CLI round diffed against
# --shards 2 --stream-batch 2, then the stream bench smoke — the build fails if the streamed path's peak resident memory
# grows more than 1.25x across the client ladder while the one-batch
# path's doubles.
stream-smoke:
	dune build bin/risefl_cli.exe
	@set -e; \
	BIN=_build/default/bin/risefl_cli.exe; \
	DIR=/tmp/risefl-stream; rm -rf $$DIR; mkdir -p $$DIR; \
	ARGS="--clients 6 --dimension 16 --samples 4 --seed stream-smoke"; \
	$$BIN round $$ARGS | grep -E "flagged|aggregate" > $$DIR/one-batch.txt; \
	$$BIN round $$ARGS --shards 2 --stream-batch 2 \
	  | tee $$DIR/stream-full.txt | grep -E "flagged|aggregate" > $$DIR/stream.txt; \
	diff $$DIR/one-batch.txt $$DIR/stream.txt \
	  || { echo "stream-smoke: sharded round diverged from the one-batch round" >&2; exit 1; }; \
	grep -q "stream: 6 folded, 6 evicted" $$DIR/stream-full.txt \
	  || { echo "stream-smoke: stream counters missing from CLI output" >&2; exit 1; }; \
	echo "stream-smoke: one-batch/sharded CLI rounds bit-identical"
	dune exec bench/main.exe -- stream --smoke --json /tmp/stream-smoke.json --gate-stream 1.25
	@grep -q '"name": "stream-peak-growth"' /tmp/stream-smoke.json \
	  || { echo "stream-smoke: peak-memory records missing from bench JSON" >&2; exit 1; }

# Share-topology gate: CLI differentials —
# k = n-1 must normalize to the all-to-all path and match its
# flagged/aggregate lines byte for byte, and a seeded agg-stage
# dropout ladder at small k must recover every dropout's blind through
# its neighborhood so the aggregate still matches the honest full
# round. Finishes with the topology bench smoke — the build fails if
# per-client commit bytes at fixed degree grow more than 1.1x while n
# doubles.
topology-smoke:
	dune build bin/risefl_cli.exe
	@set -e; \
	BIN=_build/default/bin/risefl_cli.exe; \
	DIR=/tmp/risefl-topology; rm -rf $$DIR; mkdir -p $$DIR; \
	ARGS="--clients 8 --dimension 16 --samples 4 --seed topology-smoke"; \
	$$BIN round $$ARGS | grep -E "flagged|aggregate" > $$DIR/full.txt; \
	$$BIN round $$ARGS --topology kregular --degree 7 \
	  | tee $$DIR/maxdeg-full.txt | grep -E "flagged|aggregate" > $$DIR/maxdeg.txt; \
	grep -q "normalizes to full" $$DIR/maxdeg-full.txt \
	  || { echo "topology-smoke: k = n-1 did not normalize to all-to-all" >&2; exit 1; }; \
	diff $$DIR/full.txt $$DIR/maxdeg.txt \
	  || { echo "topology-smoke: k = n-1 round diverged from the all-to-all round" >&2; exit 1; }; \
	for drops in 3 8 2,6; do \
	  $$BIN round $$ARGS --topology kregular --degree 4 --agg-dropouts $$drops \
	    | grep -E "aggregate" > $$DIR/drop-$$drops.txt; \
	  grep -E "aggregate" $$DIR/full.txt > $$DIR/full-agg.txt; \
	  diff $$DIR/full-agg.txt $$DIR/drop-$$drops.txt \
	    || { echo "topology-smoke: dropout set {$$drops} not recovered by the neighborhood" >&2; exit 1; }; \
	done; \
	echo "topology-smoke: k=n-1 bit-identical, dropout ladder recovered"
	dune exec bench/main.exe -- topology --smoke --json /tmp/topology-smoke.json --gate-topology 1.1
	@grep -q '"name": "kregular-bytes-growth"' /tmp/topology-smoke.json \
	  || { echo "topology-smoke: commit-bytes records missing from bench JSON" >&2; exit 1; }

# Elastic-membership gate: CLI differentials: a seeded 5-round churn
# session must be bit-identical across jobs {1,2,4} and under a k-regular topology (with the shrunken
# rounds' degree clamp), a crash at an epoch boundary must resume from
# the WAL onto the identical transcript, and a serve/client deployment —
# client 2's first process exiting before round 2's commit and a fresh
# one joining in flight once the server's log shows round 2 open (the
# poll gives up after 30 s), every client told only its security
# parameters (the rounds and the churn spec are the server's
# announcement) — must match the in-process session line for line, the
# late process's rounds 2-3 included.
# Finishes with the churn bench smoke (per-epoch enrollment/rotation
# costs into the JSON).
churn-smoke:
	dune build bin/risefl_cli.exe
	@set -e; \
	BIN=_build/default/bin/risefl_cli.exe; \
	DIR=/tmp/risefl-churn; rm -rf $$DIR; mkdir -p $$DIR; \
	ARGS="--clients 6 --dimension 16 --samples 4 --seed churn-smoke --rounds 5 \
	  --churn leave=0.35,rejoin=0.6,rotate=0.25,min=4"; \
	$$BIN round $$ARGS | grep -E "flagged|aggregate|cohorts|churn:" > $$DIR/ref.txt; \
	if grep -q "cohorts: r1=6 r2=6 r3=6 r4=6 r5=6" $$DIR/ref.txt; then \
	  echo "churn-smoke: the seeded schedule never churned" >&2; exit 1; fi; \
	for J in 2 4; do \
	  $$BIN round $$ARGS --jobs $$J | grep -E "flagged|aggregate|cohorts|churn:" > $$DIR/j$$J.txt; \
	  diff $$DIR/ref.txt $$DIR/j$$J.txt \
	    || { echo "churn-smoke: jobs=$$J diverged from jobs=1" >&2; exit 1; }; \
	done; \
	$$BIN round $$ARGS --topology kregular --degree 3 \
	  | grep -E "flagged|cohorts|churn:" > $$DIR/kreg.txt; \
	$$BIN round $$ARGS --topology kregular --degree 3 --jobs 2 \
	  | grep -E "flagged|cohorts|churn:" > $$DIR/kreg-j2.txt; \
	diff $$DIR/kreg.txt $$DIR/kreg-j2.txt \
	  || { echo "churn-smoke: k-regular churn diverged across jobs" >&2; exit 1; }; \
	rm -f $$DIR/wal; \
	$$BIN round $$ARGS --wal $$DIR/wal --crash 3:commit:start \
	  | grep -E "flagged|aggregate|cohorts|churn:|recovered" > $$DIR/crash.txt; \
	grep -q "1 crash(es) recovered" $$DIR/crash.txt \
	  || { echo "churn-smoke: the epoch-boundary crash did not recover" >&2; exit 1; }; \
	grep -vE "recovered" $$DIR/crash.txt > $$DIR/crash-key.txt; \
	diff $$DIR/ref.txt $$DIR/crash-key.txt \
	  || { echo "churn-smoke: epoch-boundary resume diverged from the uncrashed run" >&2; exit 1; }; \
	SARGS="--clients 5 --dimension 16 --samples 4 --seed churn-serve"; \
	SESSION="--rounds 3 --churn leave=0.4,rejoin=0.6,rotate=0.3,min=3"; \
	$$BIN round $$SARGS $$SESSION | grep -E "flagged|aggregate|cohorts" > $$DIR/sref.txt; \
	for i in 1 3 4 5; do \
	  $$BIN client $$SARGS --id $$i --connect unix:$$DIR/sock \
	    > $$DIR/client$$i.txt 2>&1 & \
	done; \
	( $$BIN client $$SARGS --id 2 --die-at 2:commit --connect unix:$$DIR/sock \
	    > $$DIR/client2-first.txt 2>&1; \
	  for t in $$(seq 300); do \
	    if grep -q "round [2-9]: waiting" $$DIR/serve.txt; then \
	      exec $$BIN client $$SARGS --id 2 --connect unix:$$DIR/sock > $$DIR/client2.txt 2>&1; fi; \
	    sleep 0.1; \
	  done ) & \
	$$BIN serve $$SARGS $$SESSION --verbose --listen unix:$$DIR/sock > $$DIR/serve.txt 2>&1; \
	wait; \
	grep -q "client 2 enrolled at round [2-9]" $$DIR/serve.txt \
	  || { echo "churn-smoke: the late client never joined in flight" >&2; exit 1; }; \
	grep -E "flagged|aggregate|cohorts" $$DIR/serve.txt > $$DIR/srv-key.txt; \
	diff $$DIR/sref.txt $$DIR/srv-key.txt \
	  || { echo "churn-smoke: elastic deployment diverged from the in-process session" >&2; exit 1; }; \
	grep aggregate $$DIR/sref.txt | tail -n 2 > $$DIR/late-want.txt; \
	grep aggregate $$DIR/client2.txt > $$DIR/late-got.txt || true; \
	diff $$DIR/late-want.txt $$DIR/late-got.txt \
	  || { echo "churn-smoke: the late client's rounds 2-3 differ from the session's" >&2; exit 1; }; \
	echo "churn-smoke: elastic session jobs/topology/crash/deployment bit-identical"
	dune exec bench/main.exe -- churn --smoke --json /tmp/churn-smoke.json
	@grep -q '"name": "epoch-advance-s"' /tmp/churn-smoke.json \
	  || { echo "churn-smoke: per-epoch records missing from bench JSON" >&2; exit 1; }

clean:
	dune clean
