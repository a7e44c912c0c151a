// The SQLGraph relational schema (paper Fig. 5):
//
//   OPA(VID, SPILL, EID0, LBL0, VAL0, ..., EIDn, LBLn, VALn)  outgoing
//   IPA(VID, SPILL, EID0, LBL0, VAL0, ..., EIDm, LBLm, VALm)  incoming
//   OSA(VALID, EID, VAL)   multi-valued outgoing lists
//   ISA(VALID, EID, VAL)   multi-valued incoming lists
//   VA (VID, ATTR JSON)    vertex attributes
//   EA (EID, INV, OUTV, LBL, ATTR JSON)  edge attributes + redundant
//                                        adjacency copy (§3.5)
//
// Column triads are assigned to edge labels by the coloring hash (§3.4).
// VAL holds either a neighbor vertex id (single-valued label) or a list id
// ("lid") that keys into OSA/ISA (multi-valued label). List ids live in
// their own id range (>= kLidBase) so COALESCE-based templates can never
// confuse them with vertex ids. Soft-deleted ids are negative (§4.5.2).

#ifndef SQLGRAPH_SQLGRAPH_SCHEMA_H_
#define SQLGRAPH_SQLGRAPH_SCHEMA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "coloring/coloring.h"
#include "rel/database.h"
#include "util/status.h"
#include "wal/options.h"

namespace sqlgraph {
namespace core {

/// First list id; vertex ids must stay below this.
inline constexpr int64_t kLidBase = int64_t{1} << 40;

inline constexpr char kOpaTable[] = "OPA";
inline constexpr char kIpaTable[] = "IPA";
inline constexpr char kOsaTable[] = "OSA";
inline constexpr char kIsaTable[] = "ISA";
inline constexpr char kVaTable[] = "VA";
inline constexpr char kEaTable[] = "EA";

struct StoreConfig {
  /// Cap on adjacency column triads per direction. The coloring may want
  /// fewer; more colors than this spill to extra rows.
  size_t max_adjacency_colors = 48;
  /// Ablation: disable the dataset-aware coloring and use a modulo hash
  /// with `max_adjacency_colors` columns.
  bool use_coloring = true;
  /// Storage backing: kPaged enables the buffer-pool memory experiments.
  rel::StorageMode storage = rel::StorageMode::kResident;
  /// Buffer pool budget (only meaningful with kPaged).
  size_t buffer_pool_bytes = 256ull << 20;
  /// Vertex-attribute keys to index (the "user-created indexes" of §3.3):
  /// hash for equality lookups, ordered for ranges/prefixes.
  std::vector<std::string> va_hash_indexes;
  std::vector<std::string> va_ordered_indexes;
  /// Durability root (src/wal). When non-empty the store write-ahead-logs
  /// every CRUD mutation into this directory; open/create such a store with
  /// wal::OpenDurableStore and persist it with SqlGraphStore::Checkpoint.
  /// Empty keeps the store purely in-memory (the pre-WAL behaviour).
  std::string durability_dir;
  /// When an acknowledged commit is on stable storage (see wal::SyncMode).
  wal::SyncMode wal_sync_mode = wal::SyncMode::kBatched;
  /// Run CheckConsistency() at the end of WAL recovery and fail the open on
  /// violations. Defaults on in Debug builds; costs a full scan of all six
  /// tables, so Release opts in explicitly.
#ifdef NDEBUG
  bool verify_on_recovery = false;
#else
  bool verify_on_recovery = true;
#endif
  /// Statically verify every SQL plan before execution and reject malformed
  /// ones with a structured diagnostic (sql/verify.h). Defaults on in Debug
  /// builds; prepared/cached statements amortize the check to two passes
  /// per plan, so Release can opt in at negligible cost.
#ifdef NDEBUG
  bool verify_plans = false;
#else
  bool verify_plans = true;
#endif
};

/// Column names of the i-th triad.
std::string EidCol(size_t i);
std::string LblCol(size_t i);
std::string ValCol(size_t i);

/// \brief Resolved schema: the label→column hashes and triad counts.
struct GraphSchema {
  coloring::ColoredHash out_hash;
  coloring::ColoredHash in_hash;
  size_t out_colors = 1;  // triads in OPA
  size_t in_colors = 1;   // triads in IPA

  /// Creates the six tables (without secondary indexes; the loader adds
  /// them after bulk insert).
  util::Status CreateTables(rel::Database* db, const StoreConfig& config) const;

  /// Creates the index set of Fig. 5: VID/VALID indexes, EA primary key and
  /// the INV+LBL / OUTV+LBL combined indexes, plus configured VA JSON
  /// indexes.
  util::Status CreateIndexes(rel::Database* db,
                             const StoreConfig& config) const;
};

/// Load-time statistics (paper Table 3).
struct LoadStats {
  size_t num_out_labels = 0;
  size_t num_in_labels = 0;
  size_t out_colors = 0;
  size_t in_colors = 0;
  size_t max_out_bucket = 0;   // "hashed bucket size"
  size_t max_in_bucket = 0;
  size_t out_spill_rows = 0;   // extra OPA rows beyond one per vertex
  size_t in_spill_rows = 0;
  double out_spill_pct = 0;    // spill rows / vertices
  double in_spill_pct = 0;
  size_t osa_rows = 0;         // "multi-value table rows"
  size_t isa_rows = 0;
  size_t num_vertices = 0;
  size_t num_edges = 0;
};

}  // namespace core
}  // namespace sqlgraph

#endif  // SQLGRAPH_SQLGRAPH_SCHEMA_H_
