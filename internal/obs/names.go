package obs

// Metric names, one constant per registered series. internal/shard's
// TestEveryMetricNameIsRegistered requires every Metric* constant here
// to name a series registered in Default by the packages that test
// links, so a series can never silently stop being collected; the full
// table with meanings lives in ARCHITECTURE.md ("Observability").
const (
	// Run-cache traffic (internal/runcache) — mirrors runcache.Stats so
	// cached CLI reruns can assert hit rates from -metrics-out alone.
	// key_hashes counts cell content addresses computed (Key.Hash); a
	// process hashes each cell it addresses once, however many tiers
	// key on it.
	MetricRuncacheMemHits    = "runcache.mem_hits"
	MetricRuncacheDiskHits   = "runcache.disk_hits"
	MetricRuncacheMisses     = "runcache.misses"
	MetricRuncacheEvictions  = "runcache.evictions"
	MetricRuncacheDiskErrors = "runcache.disk_errors"
	MetricRuncacheLookupNs   = "runcache.lookup_ns"
	MetricRuncacheKeyHashes  = "runcache.key_hashes"

	// Run-journal activity (internal/journal).
	MetricJournalAppends      = "journal.appends"
	MetricJournalAppendNs     = "journal.append_ns"
	MetricJournalReplayed     = "journal.replayed_cells"
	MetricJournalReplayServes = "journal.replay_serves"

	// Cycle-engine throughput (internal/machine) — the raw-speed series
	// PERFORMANCE.md and the BENCH_*.json snapshots are built on.
	// MetricMachineRuns counts Machine.Run invocations (a study cell runs
	// the machine once per trial plus serial baselines).
	// MetricMachineCycles accumulates simulated cycles advanced across
	// all runs, including jumped quiet windows — it measures simulated
	// work, not host work. MetricMachineCyclesPerWs is a gauge of the
	// last run's simulated-cycles-per-wall-second rate, the single best
	// "is the simulator fast right now" number in a -metrics-out
	// snapshot; cmd/benchsnap derives its throughput fields from the
	// counter deltas instead so they aggregate across cells.
	MetricMachineRuns        = "machine.runs"
	MetricMachineCycles      = "machine.cycles_total"
	MetricMachineCyclesPerWs = "machine.cycles_per_wall_second"

	// Machine pool traffic (internal/machine.Pool): builds are cache
	// misses (a full New), reuses are recycled hard-reset machines. A
	// healthy study shows builds ≈ distinct machine configs and
	// everything else reuses; rising builds mean cells stopped sharing
	// pooled machines and the per-cell allocation cost is back.
	MetricMachinePoolBuilds = "machine.pool_builds"
	MetricMachinePoolReuses = "machine.pool_reuses"

	// Experiment engine (internal/core).
	MetricCoreCellsComputed = "core.cells_computed"
	MetricCoreCellsCached   = "core.cells_cached"
	MetricCoreCellNs        = "core.cell_ns"
	MetricCoreWorkers       = "core.workers"
	MetricCoreWorkerUtil    = "core.worker_utilization"

	// In-flight cell dedupe (core.Dedupe): leaders computed a cell,
	// shared counts identical concurrent requests served the leader's
	// result. leaders+misses of the dedupe layer equal unique in-flight
	// cells; shared is simulation work a shared server avoided.
	MetricCoreFlightLeaders = "core.flight_leaders"
	MetricCoreFlightShared  = "core.flight_shared"

	// Experiment server (internal/server): HTTP traffic and latency,
	// study-job lifecycle, and admission-control rejections (the 429s).
	// active_studies is the gauge of study jobs currently running.
	MetricServerRequests        = "server.http_requests"
	MetricServerRequestNs       = "server.http_request_ns"
	MetricServerStudiesAccepted = "server.studies_accepted"
	MetricServerStudiesDone     = "server.studies_done"
	MetricServerStudiesFailed   = "server.studies_failed"
	MetricServerStudiesCanceled = "server.studies_canceled"
	MetricServerRejected        = "server.rejected"
	MetricServerActiveStudies   = "server.active_studies"

	// Sharded execution (internal/shard): cells_sent counts cells
	// dispatched to remote workers (totalled across shards; the per-shard
	// split is the dynamic shard.cells_sent.<i> series), retries counts
	// 429-and-wait rounds against busy workers, failovers counts cells
	// that executed away from their cache-affinity home shard because it
	// was down or unreachable.
	MetricShardCellsSent = "shard.cells_sent"
	MetricShardRetries   = "shard.retries"
	MetricShardFailovers = "shard.failovers"
)
