// Content-addressed cell-result cache (`aql_bench --cache-dir`).
//
// Cells are pure functions of (scenario, policy, derived seed), so a sweep
// never needs to recompute a cell whose configuration it has run before —
// across repeats of a run, across shard/merge pipelines, across commits
// while the engine is unchanged, and across *sweeps*: two sweeps that build
// the identical cell (same expanded scenario, machine configuration, policy
// and seed) share one entry. Entries live one-per-file under
// `<dir>/cells/`, addressed by a 64-bit FNV-1a hash of the key tuple
//
//   (derived-seed, quick, config-hash, cell-config-fp)
//
// and store the complete serialized result (the fragment cell-record format
// of src/experiment/merge.h), so a hit is bit-identical to recomputation.
// The cell-config fingerprint (CellConfigFingerprint) is a *full* scenario
// fingerprint: the expanded scenario description (ScenarioJson, including
// the fleet block), the complete machine configuration (topology, HwParams,
// CreditParams, monitoring period — the knobs the scenario JSON alone
// cannot see), the policy configuration (label, quanta, every AqlConfig
// knob) and the trace flag. Sweep name and cell id are deliberately NOT
// part of the key: they are labels, not inputs to the simulation, and
// keeping them out is what lets equivalent cells dedup across sweeps (the
// caller re-stamps its own cell configuration on a hit). Editing a sweep's
// cell parameters still invalidates its entries even when the id stays,
// because the parameters are the key.
//
// Invalidation: the key's config-hash defaults to a fingerprint of the
// engine version below — bump kCellCacheEngineVersion whenever simulation
// behavior changes, or override SweepOptions::config_hash (e.g. in tests,
// or to segregate caches across experimental builds). Stale or corrupt
// entries are treated as misses, never as errors: every Load verifies the
// stored key fields before trusting the record.
//
// Concurrency: distinct cells map to distinct files, and a store writes to
// a temp file then renames, so parallel workers — and parallel shard
// processes sharing one directory — stay safe.

#ifndef AQLSCHED_SRC_EXPERIMENT_CELL_CACHE_H_
#define AQLSCHED_SRC_EXPERIMENT_CELL_CACHE_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "src/experiment/sweep.h"

namespace aql {

// Bump on any change to simulation semantics or the record layout; doing so
// orphans (not corrupts) every existing cache entry. v3: sweep/cell-id left
// the key (cross-sweep dedup) and the fingerprint grew the full machine
// configuration. v4: multi-socket machines run the socket-island engine
// (per-VM socket placement, per-VM RNG streams, socket-filtered
// stealing/wakes), which changed their trajectories; --socket-threads is
// NOT in the key — any thread count reproduces the entry's bytes. v5: LLC
// eviction visits victims and drains its rounding residue in ascending vCPU
// id instead of hash-map order.
inline constexpr const char* kCellCacheEngineVersion = "aql-cell-cache-v5";

struct CellCacheKey {
  uint64_t derived_seed = 0;
  bool quick = false;
  uint64_t config_fingerprint = 0;  // CellConfigFingerprint(cell)
};

// Full fingerprint of a cell's executable configuration: FNV-1a over the
// serialized scenario description (ScenarioJson, including the fleet
// block), the complete machine configuration (topology, HwParams,
// CreditParams, monitoring period), the full policy configuration (kind,
// quanta, AqlConfig including vTRS limits, calibration and the NUMA
// response knobs) and the trace flag. Two cells with equal fingerprints
// (and seeds) simulate identically, which is what makes cross-sweep entry
// sharing sound; it also guards the cache against a sweep registration
// changing a cell's parameters while keeping its id.
uint64_t CellConfigFingerprint(const SweepCell& cell);

class CellCache {
 public:
  // `config_hash` of 0 selects DefaultConfigHash().
  CellCache(std::string dir, uint64_t config_hash);

  // FNV-1a of kCellCacheEngineVersion.
  static uint64_t DefaultConfigHash();

  // Entry path for a key: <dir>/cells/<16-hex-digit-hash>.json. One shared
  // subdirectory — entries are sweep-agnostic by design.
  std::string PathFor(const CellCacheKey& key) const;

  // Fills the result (and cursor trace) on a hit; the caller re-stamps its
  // own cell configuration (on a cross-sweep hit the stored labels belong
  // to whichever sweep computed the entry first). Absent, corrupt or
  // key-mismatched entries count as misses.
  bool Load(const CellCacheKey& key, CellResult* out);

  // Persists a computed cell. Failures to write are silently ignored (the
  // cache is an accelerator, not a store of record).
  void Store(const CellCacheKey& key, const CellResult& cell);

  uint64_t config_hash() const { return config_hash_; }
  uint64_t hits() const { return hits_.load(); }
  uint64_t misses() const { return misses_.load(); }

  // --- garbage collection (`aql_bench cache-gc`) ---

  struct GcStats {
    uint64_t entries_before = 0;
    uint64_t entries_evicted = 0;
    uint64_t tmp_removed = 0;  // orphaned temp files of crashed writers
    uint64_t bytes_before = 0;
    uint64_t bytes_after = 0;
  };

  // Evicts entry files under `dir` oldest-mtime-first until the cache fits
  // `max_bytes` (ties broken by path for determinism). Orphaned temp files
  // are removed unconditionally. Surviving entries are never touched, so
  // they keep hitting — and verifying — exactly as before the pass.
  static GcStats Gc(const std::string& dir, uint64_t max_bytes);

 private:
  uint64_t HashKey(const CellCacheKey& key) const;

  std::string dir_;
  uint64_t config_hash_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

}  // namespace aql

#endif  // AQLSCHED_SRC_EXPERIMENT_CELL_CACHE_H_
