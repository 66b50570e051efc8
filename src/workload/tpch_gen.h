// TPC-H-like synthetic data generator (substitute for dbgen + the skewed
// TPC-D generator [22]; see DESIGN.md §4). Produces the eight TPC-H tables
// with consistent foreign keys, optional Zipf skew on foreign-key choices,
// and a per-partition "drift" knob that rotates the skew hotspot — used to
// emulate the paper's partitioned skewed executions (Fig. 6).
//
// Dates are encoded as yyyymmdd integers (order-preserving); strings are
// dictionary codes.
#ifndef IQRO_WORKLOAD_TPCH_GEN_H_
#define IQRO_WORKLOAD_TPCH_GEN_H_

#include <cstdint>

#include "catalog/catalog.h"

namespace iqro {

struct TpchConfig {
  /// Row counts scale linearly: lineitem ~ 6M x scale_factor.
  double scale_factor = 0.01;
  /// Zipf skew exponent for foreign-key choices; 0 = uniform (TPC-H), the
  /// paper's skewed runs use 0.5.
  double zipf_theta = 0.0;
  /// Rotates the skew hotspot; different values model data partitions with
  /// different distributions (uniform data ignores it).
  uint32_t partition = 0;
  uint64_t seed = 42;
};

/// The number of TPC-H tables; in a fresh catalog they get ids 0..7.
inline constexpr int kTpchTables = 8;

/// Creates (or clears and refills) the eight TPC-H tables in `catalog`,
/// builds primary/foreign-key hash indexes and clusters each table on its
/// primary key.
void GenerateTpch(Catalog* catalog, const TpchConfig& config);

/// Encodes a calendar date as an order-preserving int64.
constexpr int64_t TpchDate(int year, int month, int day) {
  return static_cast<int64_t>(year) * 10000 + month * 100 + day;
}

}  // namespace iqro

#endif  // IQRO_WORKLOAD_TPCH_GEN_H_
