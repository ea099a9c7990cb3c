#!/bin/sh
# ci.sh — the checks CI runs, runnable locally with no arguments.
#
#   build      go build ./...
#   vet        go vet ./...
#   test       go test -race ./...
#   netchaos   the seeded reset-draw determinism test, run 20 times:
#              "seeded" must mean the same pattern on every run
#   loadgen-seed
#              the two loadgen seeding tests (uniform and Zipf mix), run
#              20 times: the planned arrival sequence must repeat per
#              seed, and nothing they assert may depend on the scheduler
#   fault-seq  the ordered fault-injection calls of every request over
#              the paper corpus, option grid, forced ladder rungs and 50
#              seeded plans match testdata/fault_sequence.golden, and each
#              forward stage stays inside its allocation budget, 5 runs:
#              a seeded chaos plan's outcome depends on that sequence
#   chaos      seeded fault-injection smoke against the hardened HTTP
#              service, under the race detector (any failure names the
#              run seed + request index it reproduces from)
#   kill-storm seeded SIGKILL/wedge/pipe-garbage storm against the
#              process-isolated worker pool, under the race detector:
#              every request must end as a 200 or a categorized error,
#              with no goroutine or child-process leaks
#   serve      queryvisd start / healthz / graceful-shutdown cycle on an
#              ephemeral port, plus the same lifecycle with
#              -isolation=process: SIGTERM mid-dispatch must drain the
#              in-flight worker request and reap every child; plus the
#              flag surface: the 17 pinned flags and their groups, a
#              flag the selected mode would ignore exits 2 naming it,
#              spawned workers and fleet members get exactly the set
#              instance flags, and the default flags build the pinned
#              instance, pool, router and fleet configs
#   metrics    observability smoke: boot the daemon, serve one Fig. 1
#              diagram, and require /v1/metrics to expose the metric
#              families with a non-zero stage histogram; also proves the
#              /debug/pprof surface is 404 unless -pprof is set, in
#              route mode as well as instance mode
#   trace      distributed-tracing smoke: a standalone daemon's request
#              yields a retrievable trace with exactly its hops, and a
#              request through router → instance → worker process
#              assembles ONE merged trace tree (router, instance,
#              dispatch, worker, and worker-side stage spans) from
#              /v1/traces; plus the /v1/traces filter surface and the
#              per-item batch spans
#   slo-gate   scripts/slogate: boot a real daemon, replay the benchmark
#              mix with cmd/loadgen -gate, and fail the run when p50 or
#              the handler benchmark's allocs/op regress more than 20%
#              against the recorded BENCH_server.json baseline
#   cache      diagram-cache smoke: the daemon serves the Fig. 1 query
#              twice — the second response must carry
#              X-QueryVis-Cache: hit with verify_status=verified, and
#              the hit counter on /v1/metrics must read exactly 1; then
#              App. G's Sailors "only" query and its Students isomorph —
#              the second response must name Student
#   cache-race singleflight collapse, eviction-churn, cache-on digest,
#              batch-parity and request-key batteries under the race
#              detector: N goroutines sending one identical request
#              collapse to one build with byte-identical bodies, a
#              two-entry cache under six-query pressure never serves
#              bytes that diverge from the uncached baseline, the
#              200-request digest mix served cold then warm through one
#              cache matches the uncached golden, in-process and through
#              a process-isolated server whose warm pass never reaches a
#              worker, the same mix served as /v1/diagrams:batch items
#              carries each single /v1/diagram answer (body, verify and
#              degraded headers) cold and warm in both modes, and the
#              request key holds every input that decides the bytes: a
#              shared library cache never serves an entry built without
#              limits to a caller whose limits refuse the query;
#              followers of an uncacheable leader run their own build
#   scale-out  instance-level chaos through the consistent-hash router,
#              under the race detector, 3 runs: three real instances, two
#              SIGKILLed mid-run, 100% well-formed responses, no
#              goroutine or child-process leaks; plus the loadgen smoke
#              (open-loop burst through the router over two instances,
#              one SIGKILLed mid-run, loadgen's audit must exit clean)
#              and the queryvisd -route lifecycle check
#   churn      rolling-restart membership chaos under the race detector:
#              three real instances behind the live router and a running
#              fleet supervisor, two replaced mid-storm by editing the
#              fleet spec and poking the supervisor, the SIGHUP path (add
#              the replacement and wait for its join, drop the old member
#              and wait for the supervisor to drain it and eject it once
#              idle, then kill it) while 16 workers drive a Zipf-skewed
#              mix with the router's response cache enabled — every
#              response well-formed, zero shed, zero 503s, both drains
#              finished as "drained", zero leaks; the membership
#              regressions (spec URLs normalized to the ring's form so a
#              healthy ring is left alone, a dropped member's process
#              kept until it is off the ring, a dead member's probe never
#              queued behind a blackholed one, Close never waiting out a
#              blackholed probe, a member joined at runtime forwarded
#              nothing until the prober admits it, a blackholed member
#              out of rotation within 3 health intervals, 20 runs); the
#              router hit's allocation budget (20 runs); the supervisor's
#              membership invariants (every desired member joined at
#              once, ring health never moving membership, a re-added
#              member joined again); the response cache's
#              stampede collapse, its replays carrying each caller's own
#              request and trace IDs and a fresh Date, and its coherence
#              (two real instances, one replaced by an instance with
#              other limits: within one probe round the router stops
#              replaying the old bytes); the per-key coherence rule, 20
#              runs (a mixed fleet's repeats are hits, a probed build
#              change makes the next lookup a miss that replaces the
#              entry, an owner's entry is not replayed for a successor of
#              another build, a fully down ring still answers from each
#              owner's entry, and the owner check allocates nothing); plus the
#              loadgen -zipf smoke (seeded skewed mix, report must carry
#              the exponent and a dominant hot share)
#   streak     the router's one health streak, under the race detector,
#              20 runs: a member whose healthz passes while its forwarded
#              requests 503 goes down after exactly ProbeDownAfter of
#              them, is forwarded nothing while down, is readmitted only
#              by passing probes (never by a late forwarded pass), and
#              429/500/504 answers and callers' expired deadline budgets
#              never move its streak; and the fleet
#              supervisor's disruption budget counts that verdict, so it
#              refuses to drain the only member still serving
#   fleet      self-healing-fleet smokes: the queryvisd fleet-mode
#              lifecycle (supervisor discovers and joins a member that
#              was never on the -route list, SIGHUP re-reads the spec
#              and removes a dropped member, fleet metric families ride
#              /v1/metrics), then the partition-heal chaos battery under
#              the race detector, 3 runs — three real instance
#              processes behind netchaos proxies, one SIGKILLed and one
#              fully partitioned mid-load; the router must take both out of
#              rotation (no request reaches a member it holds down) and
#              readmit both, the supervisor must respawn the killed one,
#              no health event may change membership (epoch 1, no join,
#              drain or eject), and GET /v1/fleet must report every
#              action, with zero goroutine or child-process leaks; plus
#              the supervisor's membership invariants; plus the loadgen
#              netchaos smoke (open-loop burst through the router over
#              one latency-degraded and one flapping link, audit clean)
#   oracle     30-second differential-oracle smoke run (seeded, so any
#              counterexample it prints is reproducible with cmd/oracle)
#   replay     the checked-in quarantine corpus must replay with zero
#              divergence: every entry either reproduces its recorded
#              verification failure or verifies cleanly (a fixed bug)
set -eu

cd "$(dirname "$0")/.."

echo "== build"
go build ./...

echo "== vet"
go vet ./...

echo "== test (race)"
go test -race ./...

echo "== seeded netchaos determinism (20 runs)"
go test -count=20 -run TestSeededResetIsDeterministic ./internal/netchaos

echo "== seeded loadgen mix determinism (20 runs)"
go test -count=20 -run 'TestLoadgenZipfSkewsMix|TestLoadgenMixIsSeededAndReproducible' ./cmd/loadgen

echo "== fault sequence + stage allocation budgets (5 runs)"
go test -count=5 -run 'TestFaultSequenceGolden|TestStageAllocBudgets' .

echo "== inverse search vs the reference enumerator (seeded, 20 runs)"
go test -count=20 -run 'TestPrunedSearchMatchesReference' ./internal/inverse

echo "== chaos smoke (race)"
go test -count=1 -run TestChaos -race ./internal/faults/...

echo "== kill-storm smoke (race)"
go test -count=1 -run 'TestKillStorm|TestCrashContainment' -race ./internal/workerpool

echo "== queryvisd serve/healthz/shutdown (in-process + -isolation=process)"
go test -count=1 -run 'TestServeHealthzShutdown|TestProcessIsolationServeDrain|TestFlagSurface|TestFlagModesAccepted|TestUsageError|TestSpawnerArgs|TestDefaultConfigs|TestParseSRVName' ./cmd/queryvisd
go test -count=1 -run 'TestPrunedSearchMatchesReference|TestAdversarialSweep' ./internal/inverse
go test -count=1 -run 'TestVerifyWideQueries' .
go test -count=1 -run 'TestWideQueriesVerifiedOverHTTP|TestVerifyCountsAcrossIsolation' ./internal/server

echo "== metrics smoke + pprof gate (instance + route mode)"
go test -count=1 -run 'TestMetricsSmoke|TestPprofGate|TestRouterPprofGate' ./cmd/queryvisd

echo "== trace smoke (standalone + fleet-merged trace tree)"
go test -count=1 -run 'TestTraceSmoke|TestTraceThroughFleet' ./cmd/queryvisd
go test -count=1 -run 'TestTraces' ./internal/server
go test -count=1 -run 'TestFleetObservability' ./internal/router

echo "== cache smoke"
go test -count=1 -run TestCacheSmoke ./cmd/queryvisd

echo "== cache race battery (race)"
go test -count=1 -race -run 'TestCacheRaceSingleflight|TestCacheEvictionChurn|TestHandlerDigestsCacheColdWarm|TestHandlerDigestsProcessColdWarm|TestBatchParityColdWarm' ./internal/server
go test -count=1 -race -run 'TestFromSQLCachedKeyHolds' .
go test -count=1 -race -run 'TestKeyHoldsEveryInput|TestFollowerOfUncacheableLeaderBuildsItself|TestNilCacheBuilds' ./internal/diagcache

echo "== scale-out router kill-storm (race, 3 runs)"
go test -count=3 -race -run 'TestRouterKillStorm|TestRouterSurvivesColdStartAgainstDeadRing' ./internal/router

echo "== loadgen scale-out smoke (router + instance kill)"
go test -count=1 -run 'TestLoadgenSmokeInstanceKill' ./cmd/loadgen

echo "== queryvisd route-mode lifecycle"
go test -count=1 -run TestRouteMode ./cmd/queryvisd

echo "== rolling-restart membership churn (race)"
go test -count=1 -race -run 'TestRouterMembershipChurn|TestProbeNotQueuedBehindBlackhole|TestCloseCancelsOutstandingProbe|TestJoinedMemberWaitsForAdmission|TestStampedeCollapsesColdWindow|TestReplayCarriesCallersIDs|TestReplayCarriesFreshDate|TestResponseCacheFollowsAnswerIdentity' ./internal/router
go test -count=1 -race -run 'TestSpecURLsNormalizedToRing|TestSpawnKeepsDrainingMemberProcess|TestDrainCompletesOnceIdle|TestJoinsEveryDesiredMemberAtOnce|TestRingHealthNeverMovesMembership|TestReaddedMemberRejoins' ./internal/fleet
go test -count=20 -race -run 'TestBlackholedMemberDownWithinThreeIntervals|TestRouterHitAllocBudget' ./internal/router
go test -count=20 -race -run 'TestMixedFleetRepeatsAreHits|TestProbedBuildChangeReplacesEntry|TestOwnerDownEntryNotReplayedForOtherBuild|TestRingDownServesOwnersEntry|TestStampedeMixedFleetHitsAndCoalesces|TestStampedeConcurrentBuilds|TestAnswererIsFirstEligibleCandidate' ./internal/router

echo "== one health streak + disruption budget (race, 20 runs)"
go test -count=20 -race -run 'TestForwardedFailuresTakeMemberDown|TestNeutralOutcomesLeaveStreak|TestLyingMemberReadmittedByProbes|TestCallerDeadlineLeavesStreak|TestLyingMemberGoesDown|TestForwardedPassClearsForwardedFailure' ./internal/router
go test -count=20 -race -run 'TestBudgetCountsForwardedFailures' ./internal/fleet

echo "== loadgen zipf smoke"
go test -count=1 -run TestLoadgenZipfSkewsMix ./cmd/loadgen

echo "== fleet smoke (supervisor discovery + SIGHUP reload)"
go test -count=1 -run TestFleetMode ./cmd/queryvisd

echo "== fleet partition-heal chaos battery (race, 3 runs)"
go test -count=3 -race -run 'TestFleetPartitionHeal|TestJoinsEveryDesiredMemberAtOnce|TestRingHealthNeverMovesMembership|TestReaddedMemberRejoins' ./internal/fleet

echo "== loadgen netchaos smoke (degraded + flapping links)"
go test -count=1 -run TestLoadgenSmokeNetchaos ./cmd/loadgen

echo "== slo gate (p50 + allocs/op vs BENCH_server.json)"
scripts/slogate

echo "== oracle smoke (30s)"
go run ./cmd/oracle -n 100000 -seed 1 -timeout 30s

echo "== quarantine replay smoke"
go run ./cmd/oracle -replay testdata/quarantine -timeout 30s

echo "== ok"
