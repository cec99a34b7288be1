// Execution context: cost metering + shared state for a (partial) execution.
//
// The CostMeter charges the same abstract units the cost model prices plans
// in, so "running-cost(P) <= cost-budget(IC)" — the loop condition of the
// paper's bouquet algorithms (Figures 7 and 13) — is enforced consistently
// with the isocost contours computed at compile time.

#ifndef BOUQUET_EXECUTOR_EXEC_CONTEXT_H_
#define BOUQUET_EXECUTOR_EXEC_CONTEXT_H_

#include <cstdint>
#include <limits>

#include "catalog/catalog.h"
#include "common/lint.h"
#include "executor/instrument.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimizer/cost_model.h"
#include "query/query_spec.h"
#include "storage/buffer_manager.h"
#include "storage/index.h"

namespace bouquet {

/// Accumulates abstract cost units; trips once the budget is exceeded.
class CostMeter {
 public:
  void set_budget(double budget) { budget_ = budget; }
  double budget() const { return budget_; }
  double charged() const { return charged_; }

  /// Adds `units`; returns false (and stays tripped) once charged > budget.
  bool Charge(double units) {
    charged_ += units;
    return charged_ <= budget_;
  }

  bool exhausted() const { return charged_ > budget_; }

  /// Replay support (batch engine): tape replay keeps the accumulator in a
  /// register across thousands of one-unit adds and writes it back here.
  /// `charged` must be the value a sequence of Charge() calls would have
  /// produced — this is a performance hatch, not a way to invent cost.
  void RestoreCharged(double charged) {
    // The one sanctioned non-add write: the tape replayer's register spill
    // back into the accumulator. The replay loop performs the adds one
    // unit at a time (batch.cc BatchExecState::Replay) so association is
    // unchanged, and the differential harness pins the value bit-exactly
    // against the scalar engine.
    charged_ = charged;  // NOLINT(bouquet-charge-order): replay writeback
  }

  void Reset() {
    charged_ = 0.0;
    budget_ = std::numeric_limits<double>::infinity();
  }

 private:
  /// BOUQUET_CHARGED: mutations restricted to one scalar add at a time so
  /// the FP association (and thus the abort point) is identical in every
  /// engine; see common/lint.h and tools/lint/.
  BOUQUET_CHARGED double charged_ = 0.0;
  double budget_ = std::numeric_limits<double>::infinity();
};

/// Everything an operator tree needs at run time. Owned by the caller; must
/// outlive the operators built against it.
struct ExecContext {
  const QuerySpec* query = nullptr;
  const Catalog* catalog = nullptr;
  Database* db = nullptr;  ///< non-const: index caches build lazily
  const CostModel* cost_model = nullptr;
  CostMeter meter;
  Instrumentation instr;
  /// Optional observability sink (null = tracing off, zero overhead).
  /// When set, ExecutePlan/ExecuteSpilled emit an exec.plan span under
  /// (trace_parent, trace_id) and every finished operator node becomes an
  /// exec.node child span via the instrumentation finish hook.
  obs::Tracer* tracer = nullptr;
  uint64_t trace_parent = 0;
  uint64_t trace_id = 0;
  /// Optional metrics registry (batch engine only): batch-size histograms.
  obs::MetricsRegistry* metrics = nullptr;
  /// Batch engine: rows per column batch. Any value >= 1 is legal (the
  /// differential harness runs degenerate sizes like 1 and 3); cost
  /// accounting is independent of the choice by construction.
  int batch_size = 1024;

  /// Paged-storage accounting (zero when the database is purely in-memory).
  /// Every buffer-pool Access() the meter charged for is counted here:
  /// misses charge seq/random_page_cost, hits charge buffer_hit_page_cost.
  /// The property oracle cross-checks page_reads_charged against the buffer
  /// manager's miss-count delta — only executors access pages through a
  /// ledger, so the two must agree exactly.
  BOUQUET_CHARGED int64_t page_reads_charged = 0;
  BOUQUET_CHARGED int64_t page_hits_charged = 0;

  /// The run's private accounting view of the buffer pool (BouquetDriver
  /// forks one per run and hands it to every step). Null: accesses go to
  /// the pool's shared base ledger.
  storage::AccessLedger* ledger = nullptr;

  /// One accounted page access through `ledger`, else through the pool's
  /// base ledger. Returns hit (true) or miss (false).
  bool AccessPage(storage::BufferManager* pool, storage::PageId id) const {
    return ledger != nullptr ? ledger->Access(id) : pool->Access(id);
  }
};

}  // namespace bouquet

#endif  // BOUQUET_EXECUTOR_EXEC_CONTEXT_H_
