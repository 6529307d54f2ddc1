package storage

import "repro/internal/obs"

// Event-store instrumentation: append throughput and the recovery
// counters that back Store.RecoveryWarnings.
var (
	metAppends = obs.GetCounter("storypivot_storage_appends_total",
		"snippets appended to the event log")
	metAppendBytes = obs.GetCounter("storypivot_storage_append_bytes_total",
		"framed bytes appended to the event log")
	metAppendLat = obs.GetHistogram("storypivot_storage_append_seconds",
		"per-snippet append latency (encode, write, policy sync)")
	metSyncs = obs.GetCounter("storypivot_storage_syncs_total",
		"fsyncs issued by the durability policy")
	metOpenLat = obs.GetHistogram("storypivot_storage_open_seconds",
		"store open latency including chunk recovery and legacy import")
	metReplayed = obs.GetCounter("storypivot_storage_replayed_records_total",
		"records replayed from legacy segments at open")
	metReplayCorrupt = obs.GetCounter("storypivot_storage_replay_corrupt_records_total",
		"well-framed records skipped at replay because their payload failed to decode")
	metReplayTornBytes = obs.GetCounter("storypivot_storage_replay_torn_bytes_total",
		"torn-tail bytes truncated from chunks and legacy segments at open")
)
