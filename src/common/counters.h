// Software execution counters. The paper reports hardware counters (dTLB /
// LLC misses, branches); without PMU access we track the software analogues
// that drive those numbers: bytes materialized into intermediates, branch
// evaluations in the interpreted path, tuples flowing through operators, and
// raw-format field accesses. Benchmarks report these alongside wall time.
#pragma once

#include <cstdint>

namespace proteus {

/// Field list expanded by operator+= and Since(), keeping parallel-run
/// fold-back (TaskScheduler worker deltas) in sync with serial accounting.
/// When adding a counter: add the field below, add it here, and bump the
/// static_assert — it trips the build if the two drift apart.
#define PROTEUS_EXEC_COUNTER_FIELDS(X) \
  X(tuples_scanned)                    \
  X(tuples_output)                     \
  X(bytes_materialized)                \
  X(branch_evals)                      \
  X(raw_field_accesses)                \
  X(cache_field_accesses)              \
  X(virtual_calls)

struct ExecCounters {
  uint64_t tuples_scanned = 0;
  uint64_t tuples_output = 0;
  uint64_t bytes_materialized = 0;   ///< intermediate results (columnar engines pay this)
  uint64_t branch_evals = 0;         ///< interpreter dispatch / predicate branches
  uint64_t raw_field_accesses = 0;   ///< accesses that touched a raw CSV/JSON token
  uint64_t cache_field_accesses = 0; ///< accesses served from Proteus caches
  uint64_t virtual_calls = 0;        ///< Volcano getNext-style calls (interpretation overhead)

  void Reset() { *this = ExecCounters{}; }

  ExecCounters& operator+=(const ExecCounters& o) {
#define PROTEUS_ADD_FIELD(f) f += o.f;
    PROTEUS_EXEC_COUNTER_FIELDS(PROTEUS_ADD_FIELD)
#undef PROTEUS_ADD_FIELD
    return *this;
  }

  /// Field-wise delta against an earlier snapshot of the same counters.
  ExecCounters Since(const ExecCounters& base) const {
    ExecCounters d;
#define PROTEUS_SUB_FIELD(f) d.f = f - base.f;
    PROTEUS_EXEC_COUNTER_FIELDS(PROTEUS_SUB_FIELD)
#undef PROTEUS_SUB_FIELD
    return d;
  }
};

static_assert(sizeof(ExecCounters) == 7 * sizeof(uint64_t),
              "ExecCounters field added? Update PROTEUS_EXEC_COUNTER_FIELDS "
              "and this count together.");

/// Per-thread counters for the currently running query. Benchmarks reset
/// before a query and read after, on the thread that runs the query; the
/// TaskScheduler folds pool workers' counters back into the submitting
/// thread at the end of every parallel batch, so totals match a serial run.
/// Inline, so the generated-code read helpers that count every raw read
/// pay one thread-local access, not a call.
inline ExecCounters& GlobalCounters() {
  static thread_local ExecCounters counters;
  return counters;
}

}  // namespace proteus
