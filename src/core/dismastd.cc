#include "core/dismastd.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "common/logging.h"
#include "common/timer.h"
#include "core/dtd.h"
#include "dist/cluster.h"
#include "dist/execution.h"
#include "kernels/kernels.h"
#include "la/ops.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "partition/factor_assign.h"
#include "tensor/mttkrp.h"

namespace dismastd {

Status DistributedOptions::Validate() const {
  DISMASTD_RETURN_IF_ERROR(als.Validate());
  if (num_workers < 1) {
    return Status::InvalidArgument("num_workers must be >= 1");
  }
  DISMASTD_RETURN_IF_ERROR(cost_model.Validate());
  DISMASTD_RETURN_IF_ERROR(fault_plan.Validate());
  return Status::OK();
}

const char* StepPhaseName(StepPhase phase) {
  static constexpr const char* kNames[] = {
      "repartition", "migrate", "partition", "products",
      "mttkrp_update", "gram_reduce", "loss", "recovery"};
  static_assert(std::size(kNames) == kStepPhases.size());
  return kNames[static_cast<size_t>(phase)];
}

namespace {

/// Bytes of one COO entry on the wire: `order` u64 indices + 1 double.
uint64_t EntryBytes(size_t order) {
  return order * sizeof(uint64_t) + sizeof(double);
}

/// Rows of each partition (factor-row ownership induced by the tensor
/// partition, §IV-A3).
std::vector<std::vector<uint64_t>> RowsOfParts(const ModePartition& partition) {
  std::vector<std::vector<uint64_t>> rows(partition.num_parts);
  for (uint64_t i = 0; i < partition.slice_to_part.size(); ++i) {
    rows[partition.slice_to_part[i]].push_back(i);
  }
  return rows;
}

// Parallel execution layout: every per-worker compute step below runs
// through WorkerExecutor::Run with worker w handling its partitions
// (q ≡ w mod M) in ascending q order — exactly the per-worker sub-sequence
// of the old sequential q-loop. Each worker writes only state it owns
// (its factor/MTTKRP rows, its partial matrices, its accounting shard), so
// the parallel schedule is race-free and bit-identical to the sequential
// one; reductions and the simulated clock stay on the calling thread.

/// One DisMASTD step's shared state: its inputs, the simulated cluster it
/// runs on, the partitioning and factors its phases read and write, and
/// the record they fill. Each phase function below takes it plus its own
/// inputs and commits its superstep through Commit.
struct StepState {
  StepState(const SparseTensor& delta_in,
            const std::vector<uint64_t>& old_dims_in,
            const KruskalTensor& prev_in, const DistributedOptions& options_in)
      : delta(delta_in),
        old_dims(old_dims_in),
        prev(prev_in),
        options(options_in),
        kern(kernels::Get()),
        order(delta_in.order()),
        rank(options_in.als.rank),
        has_prev(std::any_of(old_dims_in.begin(), old_dims_in.end(),
                             [](uint64_t d) { return d > 0; })),
        delta_norm_sq(delta_in.NormSquared()),
        elastic(options_in.elastic),
        eplan(elastic != nullptr
                  ? elastic->BeginStep(delta_in, options_in.stream_step)
                  : ElasticStepPlan()),
        workers(elastic != nullptr ? eplan.num_workers
                                   : options_in.num_workers),
        parts(elastic != nullptr ? elastic->num_parts()
              : options_in.parts_per_mode == 0 ? workers
                                               : options_in.parts_per_mode),
        // The cluster starts at the pre-scale size: joiners must receive
        // their state over the fabric and leavers must hand theirs off
        // before the drain, the same boundary discipline checkpoint
        // recovery uses.
        cluster(elastic != nullptr ? eplan.workers_before : workers,
                options_in.cost_model),
        exec(workers, options_in.execution),
        injector(options_in.fault_plan, options_in.stream_step),
        m(result.metrics),
        g0(order),
        g1(order),
        h(order) {
    // Deterministic fault source for this run. Attached only when the plan
    // can inject something for this streaming step, so a fault-free run is
    // byte-for-byte identical to a build without the fault layer. All
    // injector calls happen on this (driver) thread, so the RNG stream is
    // independent of the execution engine's thread count.
    if (injector.enabled()) cluster.AttachFaultInjector(&injector);
    // Sim-clock spans land on the tracer's driver lane (this thread); the
    // registry's histogram pointer is stable, so the network records
    // message sizes into it lock-free.
    if (obs::Active(options.tracer)) cluster.AttachTracer(options.tracer);
    if (options.metrics != nullptr) {
      cluster.network().AttachMessageByteHistogram(
          options.metrics->GetHistogram(
              "dismastd_comm_message_wire_bytes", {},
              "Wire size of each remote message, in bytes"));
    }
  }

  /// Commits `acct` as one `phase` superstep: the cluster names its trace
  /// span after the phase, and the commit's simulated seconds and the wall
  /// seconds since `wall` started are added to the record's phase table.
  /// Returns the simulated seconds.
  double Commit(StepPhase phase, const SuperstepAccounting& acct,
                const WallTimer& wall) {
    const double sim = cluster.CommitSuperstep(acct, StepPhaseName(phase));
    PhaseSeconds& entry = m.phase_seconds[phase];
    entry.sim += sim;
    entry.wall += wall.ElapsedSeconds();
    return sim;
  }

  const SparseTensor& delta;
  const std::vector<uint64_t>& old_dims;
  const KruskalTensor& prev;
  const DistributedOptions& options;
  // Dispatched once here; every flop on a factor row goes through this
  // table. The blocked-8 contract (kernels/kernels.h) keeps fp64 results
  // bit-exact across backends, and the per-worker shards keep them
  // bit-exact across thread counts.
  const kernels::KernelTable& kern;
  const size_t order;
  const size_t rank;
  const bool has_prev;
  const double delta_norm_sq;
  // With an elastic coordinator attached, the coordinator decides this
  // step's cluster shape and partition before any compute: due scale
  // events apply first, then the load monitor may trigger an online
  // repartition of the decayed per-slice loads. All its inputs are
  // simulated metrics, so the plan is identical across thread counts.
  ElasticCoordinator* const elastic;
  const ElasticStepPlan eplan;
  const uint32_t workers;
  const uint32_t parts;
  Cluster cluster;
  WorkerExecutor exec;
  FaultInjector injector;
  DistributedResult result;
  StreamStepMetrics& m;

  // The partition phase's output.
  TensorPartitioning partitioning;
  std::vector<ModePartitionData> mode_data;
  std::vector<std::vector<std::vector<uint64_t>>> rows_of_part;
  /// Static per-iteration remote-row fetch plan: fetch_plan[n][src][dst] =
  /// number of factor rows worker `dst` must pull from `src` before
  /// updating mode n.
  std::vector<std::vector<std::vector<uint64_t>>> fetch_plan;

  std::vector<Matrix> factors;
  // Crash recovery needs the step's input state: kCheckpoint replays from
  // it (it is exactly what the last per-step checkpoint holds), kDegraded
  // re-draws a lost new row from it.
  std::vector<Matrix> init_factors;
  // Replicated R x R products (cached on every worker, §IV-B2/3).
  std::vector<Matrix> g0, g1, h;
  // While A_n's old rows are Ã_n bit for bit — at step start
  // (InitializeDtdFactors) and after a checkpoint replay — one Gram ÃᵀÃ
  // per mode stands in for g0 = A0ᵀA0 and h = ÃᵀA0. It is also mode n's
  // factor of the constant loss ingredient ‖[[Ã_1..Ã_N]]‖² (§IV-B4).
  std::vector<Matrix> prev_grams;
  double prev_model_norm_sq = 0.0;
};

/// Books one mode's partitioning work on every worker: the counting pass
/// over its share of the non-zeros plus its share of the boundary
/// assignment over `slices` slices — O(nnz + I) for GTP, O(nnz + I log I)
/// for MTP (Theorem 2).
void AccountPartitionWork(StepState& s, uint64_t slices,
                          SuperstepAccounting* acct) {
  const uint64_t assign_cost =
      s.options.partitioner == PartitionerKind::kMaxMin
          ? slices *
                (64 - static_cast<uint64_t>(__builtin_clzll(slices | 1)))
          : slices;
  s.exec.Run(acct, [&](uint32_t w, SuperstepAccounting& shard) {
    shard.AddSparseTask(w, s.delta.nnz() / s.workers + 1,
                        assign_cost / s.workers + 1);
  });
}

/// The online GTP/MTP recompute, as its own superstep: every worker
/// re-counts its resident non-zeros and the driver's boundary assignment
/// is spread over the cluster, mirroring the partition phase's cost.
void RepartitionPhase(StepState& s) {
  const WallTimer wall;
  SuperstepAccounting acct = s.cluster.NewSuperstep();
  for (size_t n = 0; n < s.order; ++n) {
    AccountPartitionWork(
        s, s.elastic->partitioning().modes[n].slice_to_part.size(), &acct);
  }
  s.elastic->totals().repartition_sim_seconds +=
      s.Commit(StepPhase::kRepartition, acct, wall);
}

/// Live migration: every factor row whose owner changed moves from its old
/// worker to its new one through the fabric — CRC-framed, retried under
/// injected faults (TransmitReliably inside SendRows), and booked as
/// migration traffic so rebalance cost stays separate from algorithm
/// traffic. Joiners additionally receive the replicated R x R Gram
/// products.
void MigratePhase(StepState& s) {
  const WallTimer wall;
  const ElasticStepPlan& eplan = s.eplan;
  ScopedTrafficClass migration_traffic(
      s.cluster.network(), SimulatedNetwork::TrafficClass::kMigration);
  const uint64_t migration_bytes_before =
      s.cluster.network().stats().migration_bytes;
  SuperstepAccounting acct = s.cluster.NewSuperstep();
  uint64_t migrated_rows = 0;
  for (size_t n = 0; s.has_prev && n < s.order; ++n) {
    const ModePartition& prev_mp = eplan.prev_partitioning.modes[n];
    const ModePartition& new_mp = s.elastic->partitioning().modes[n];
    // Only rows that exist in the previous factors can move; rows of
    // this step's new slices are initialized in place on their owner.
    const uint64_t movable =
        std::min<uint64_t>(s.old_dims[n], prev_mp.slice_to_part.size());
    std::vector<std::vector<std::vector<uint64_t>>> moved(
        eplan.workers_before, std::vector<std::vector<uint64_t>>(s.workers));
    for (uint64_t i = 0; i < movable; ++i) {
      const uint32_t src = prev_mp.slice_to_part[i] % eplan.workers_before;
      const uint32_t dst = new_mp.slice_to_part[i] % s.workers;
      if (src != dst) moved[src][dst].push_back(i);
    }
    for (uint32_t src = 0; src < eplan.workers_before; ++src) {
      for (uint32_t dst = 0; dst < s.workers; ++dst) {
        const std::vector<uint64_t>& rows = moved[src][dst];
        if (rows.empty()) continue;
        Matrix block(rows.size(), s.rank);
        for (size_t i = 0; i < rows.size(); ++i) {
          const double* src_row =
              s.prev.factor(n).RowPtr(static_cast<size_t>(rows[i]));
          std::copy(src_row, src_row + s.rank, block.RowPtr(i));
        }
        Result<Matrix> landed = s.cluster.SendRows(src, dst, block, &acct);
        DISMASTD_CHECK_OK(landed.status());
        // The CRC frame + retransmission guarantee migration never
        // silently alters state, even under injected corruption.
        DISMASTD_CHECK(landed.value() == block);
        migrated_rows += rows.size();
      }
    }
  }
  for (uint32_t w = eplan.workers_before;
       w < eplan.workers_before + eplan.workers_added; ++w) {
    // State handoff to each joiner: the three replicated R x R products
    // per mode (its factor rows arrived above).
    for (size_t n = 0; n < s.order; ++n) {
      for (int rep = 0; rep < 3; ++rep) {
        Result<Matrix> gram =
            s.cluster.SendRows(0, w, Matrix(s.rank, s.rank), &acct);
        DISMASTD_CHECK_OK(gram.status());
      }
    }
  }
  const double sim = s.Commit(StepPhase::kMigrate, acct, wall);
  s.m.migrated_rows = migrated_rows;
  s.m.migration_bytes =
      s.cluster.network().stats().migration_bytes - migration_bytes_before;
  s.elastic->totals().migrated_rows += migrated_rows;
  s.elastic->totals().migration_bytes += s.m.migration_bytes;
  s.elastic->totals().migration_sim_seconds += sim;
}

/// Data partitioning (§IV-A): GTP/MTP partitions every mode of the delta
/// (or the coordinator's persistent partition takes this delta's loads),
/// the non-zeros and induced factor rows ship to their owners, and the
/// per-iteration remote-row fetch plan follows from the row-access sets.
void PartitionPhase(StepState& s) {
  const WallTimer wall;
  const size_t order = s.order;
  const uint32_t workers = s.workers;
  s.mode_data.resize(order);
  s.rows_of_part.resize(order);
  SuperstepAccounting acct = s.cluster.NewSuperstep();
  const uint64_t entry_bytes = EntryBytes(order);
  for (size_t n = 0; n < order; ++n) {
    const std::vector<uint64_t> slice_nnz = s.delta.SliceNnzCounts(n);
    ModePartition mp;
    if (s.elastic != nullptr) {
      // The coordinator's persistent (step-spanning) partition, with this
      // delta's loads filled in so balance reporting and shipping
      // accounting reflect what this step actually moves.
      mp = s.elastic->partitioning().modes[n];
      std::fill(mp.part_nnz.begin(), mp.part_nnz.end(), 0);
      for (uint64_t i = 0; i < slice_nnz.size(); ++i) {
        mp.part_nnz[mp.slice_to_part[i]] += slice_nnz[i];
      }
    } else {
      mp = PartitionMode(s.options.partitioner, slice_nnz, s.parts);
    }
    s.m.balance_per_mode.push_back(ComputeBalance(mp));
    AccountPartitionWork(s, slice_nnz.size(), &acct);
    // Ship every non-zero (and the induced factor rows) to its owner
    // (Theorem 4's O(nnz) + O(NIR) communication terms). A one-worker
    // cluster keeps everything local.
    for (uint32_t q = 0; workers > 1 && q < s.parts; ++q) {
      const uint32_t dst = q % workers;
      const uint64_t tensor_bytes = mp.part_nnz[q] * entry_bytes;
      acct.AddSend((q + 1) % workers, tensor_bytes);
      acct.AddReceive(dst, tensor_bytes);
    }
    s.partitioning.modes.push_back(std::move(mp));
  }
  for (size_t n = 0; n < order; ++n) {
    s.rows_of_part[n] = RowsOfParts(s.partitioning.modes[n]);
    for (uint32_t q = 0; workers > 1 && q < s.parts; ++q) {
      const uint32_t dst = q % workers;
      const uint64_t row_bytes =
          RowTransferBytes(s.rows_of_part[n][q].size(), s.rank);
      acct.AddSend((q + 1) % workers, row_bytes);
      acct.AddReceive(dst, row_bytes);
    }
  }
  // The per-mode partition-data builds (the O(nnz) split + row-access
  // sets) are independent of each other — run them on the pool.
  s.exec.pool().ParallelFor(order, [&](size_t n) {
    s.mode_data[n] = BuildModePartitionData(s.delta, s.partitioning, n);
  });

  s.fetch_plan.assign(order, std::vector<std::vector<uint64_t>>(
                                 workers, std::vector<uint64_t>(workers, 0)));
  for (size_t n = 0; n < order; ++n) {
    for (uint32_t q = 0; q < s.parts; ++q) {
      const uint32_t dst = q % workers;
      for (size_t k = 0; k < order; ++k) {
        if (k == n) continue;
        for (uint64_t row : s.mode_data[n].needed_rows[q][k]) {
          const uint32_t owner_part =
              s.partitioning.modes[k].slice_to_part[row];
          const uint32_t src = owner_part % workers;
          if (src != dst) ++s.fetch_plan[n][src][dst];
        }
      }
    }
  }
  s.Commit(StepPhase::kPartition, acct, wall);
}

/// Builds the canonical replicated products from the current factors —
/// per mode g0 = A0ᵀA0 and h = ÃᵀA0 over the old rows, g1 = A1ᵀA1 over the
/// new ones — and books one products superstep's work into `acct`: each
/// worker computes partials over its owned rows and all-to-all reduces the
/// three R x R products per mode. Runs at step start and again inside a
/// crash recovery.
void RebuildProducts(StepState& s, bool old_rows_are_prev,
                     SuperstepAccounting* acct) {
  s.exec.pool().ParallelFor(s.order, [&](size_t n) {
    const size_t old_rows = static_cast<size_t>(s.old_dims[n]);
    const Matrix a1 = s.factors[n].RowSlice(old_rows, s.factors[n].rows());
    s.g1[n] = a1.rows() > 0 ? TransposeTimes(a1, a1) : Matrix(s.rank, s.rank);
    if (old_rows == 0) {
      s.g0[n] = Matrix(s.rank, s.rank);
      s.h[n] = Matrix(s.rank, s.rank);
    } else if (old_rows_are_prev) {
      s.g0[n] = s.prev_grams[n];
      s.h[n] = s.prev_grams[n];
    } else {
      const Matrix a0 = s.factors[n].RowSlice(0, old_rows);
      s.g0[n] = TransposeTimes(a0, a0);
      s.h[n] = TransposeTimes(s.prev.factor(n), a0);
    }
  });
  // The reductions only account traffic: the products above are already
  // the reduced ones. Fault-free they are booked without moving a byte;
  // under an injector their messages are drawn like any other.
  const std::vector<Matrix> partial_stub(s.workers, Matrix(s.rank, s.rank));
  for (size_t n = 0; n < s.order; ++n) {
    for (int rep = 0; rep < 3; ++rep) {
      (void)s.cluster.AllToAllReduceMatrix(partial_stub, acct);
    }
    s.exec.Run(acct, [&](uint32_t w, SuperstepAccounting& shard) {
      for (uint32_t q = w; q < s.parts; q += s.workers) {
        shard.AddTask(w, s.rows_of_part[n][q].size() * 3 * s.rank * s.rank);
      }
    });
  }
}

/// Step start: the previous factors' Grams, then the products superstep.
void ProductsPhase(StepState& s) {
  const WallTimer wall;
  if (s.has_prev) {
    s.prev_grams.resize(s.order);
    s.exec.pool().ParallelFor(s.order, [&](size_t n) {
      s.prev_grams[n] = TransposeTimes(s.prev.factor(n), s.prev.factor(n));
    });
    s.prev_model_norm_sq = HadamardSum(s.prev_grams);
  }
  SuperstepAccounting acct = s.cluster.NewSuperstep();
  RebuildProducts(s, /*old_rows_are_prev=*/true, &acct);
  s.Commit(StepPhase::kProducts, acct, wall);
}

/// Superstep A's output for one mode: its MTTKRP, and each worker's Gram
/// partials over the rows it updated, for superstep B to reduce.
struct ModeUpdate {
  Matrix mttkrp;
  std::vector<Matrix> p_g0, p_g1, p_h;
};

/// Superstep A for mode n: fetch remote rows, the row-wise MTTKRP (Eq. 6)
/// and the row-wise factor update (Eq. 5).
ModeUpdate MttkrpUpdatePhase(StepState& s, size_t n) {
  const WallTimer wall;
  const size_t order = s.order;
  const size_t rank = s.rank;
  const size_t old_rows = static_cast<size_t>(s.old_dims[n]);
  SuperstepAccounting acct = s.cluster.NewSuperstep();
  for (uint32_t src = 0; src < s.workers; ++src) {
    for (uint32_t dst = 0; dst < s.workers; ++dst) {
      const uint64_t rows = s.fetch_plan[n][src][dst];
      if (rows == 0) continue;
      const uint64_t bytes = RowTransferBytes(rows, rank);
      acct.AddSend(src, bytes);
      acct.AddReceive(dst, bytes);
    }
  }

  ModeUpdate update;
  update.mttkrp = Matrix(s.factors[n].rows(), rank);
  std::vector<const Matrix*> factor_ptrs(order);
  for (size_t k = 0; k < order; ++k) factor_ptrs[k] = &s.factors[k];
  // Partition q's slices are disjoint from every other partition's, so
  // accumulating into the shared buffer is race-free and yields the same
  // per-row contraction order as the centralized pass.
  s.exec.Run(&acct, [&](uint32_t w, SuperstepAccounting& shard) {
    for (uint32_t q = w; q < s.parts; q += s.workers) {
      const SparseTensor& local = s.mode_data[n].part_tensors[q];
      MttkrpAccumulate(local, factor_ptrs, n, &update.mttkrp);
      shard.AddSparseTask(w, local.nnz(),
                          MttkrpFlops(local.nnz(), order, rank));
    }
  });

  // Row-wise factor update (Eq. 5) on each owner partition. Each worker
  // rewrites only the factor rows its partitions own. The two R x R
  // systems are replicated and shared by every row of the mode, so the
  // driver builds and factors them once; workers stream their rows through
  // the row-list solve (old rows precede new rows in each ascending
  // partition row list) and add each solved chunk to their Gram partials
  // for superstep B while its rows are still in cache.
  const DtdModeSystems sys =
      FactorDtdModeSystems(s.g0, s.g1, s.h, n, s.options.als.mu);
  const Matrix* prev_factor = old_rows > 0 ? &s.prev.factor(n) : nullptr;
  update.p_g0.assign(s.workers, Matrix(rank, rank));
  update.p_g1.assign(s.workers, Matrix(rank, rank));
  update.p_h.assign(s.workers, Matrix(rank, rank));
  s.exec.Run(&acct, [&](uint32_t w, SuperstepAccounting& shard) {
    const DtdGramPartials partials{&update.p_g0[w], &update.p_h[w],
                                   &update.p_g1[w]};
    for (uint32_t q = w; q < s.parts; q += s.workers) {
      const auto& rows = s.rows_of_part[n][q];
      if (rows.empty()) continue;
      DtdUpdateRows(s.kern, sys, prev_factor, update.mttkrp, old_rows,
                    rows.data(), rows.size(), &s.factors[n], &partials);
      // Simulated cost is per partition: on a real cluster each owner
      // factors and solves its own copy of the replicated system.
      shard.AddTask(w, rows.size() * 4 * rank * rank + rank * rank * rank);
    }
  });
  s.Commit(StepPhase::kMttkrpUpdate, acct, wall);
  return update;
}

/// Superstep B for mode n: all-to-all reduction of the Gram products
/// (§IV-B3). The simulated cluster charges the partials here, where the
/// paper computes them: 2R² per old row (g0 and h), R² per new row.
void GramReducePhase(StepState& s, size_t n, const ModeUpdate& update) {
  const WallTimer wall;
  const size_t old_rows = static_cast<size_t>(s.old_dims[n]);
  SuperstepAccounting acct = s.cluster.NewSuperstep();
  s.exec.Run(&acct, [&](uint32_t w, SuperstepAccounting& shard) {
    for (uint32_t q = w; q < s.parts; q += s.workers) {
      // Ascending rows: the old-range rows form the list's prefix.
      const auto& rows = s.rows_of_part[n][q];
      const size_t num_old = static_cast<size_t>(
          std::lower_bound(rows.begin(), rows.end(),
                           static_cast<uint64_t>(old_rows)) -
          rows.begin());
      const size_t num_new = rows.size() - num_old;
      shard.AddTask(w, (2 * num_old + num_new) * s.rank * s.rank);
    }
  });
  s.g0[n] = s.cluster.AllToAllReduceMatrix(update.p_g0, &acct);
  s.g1[n] = s.cluster.AllToAllReduceMatrix(update.p_g1, &acct);
  s.h[n] = s.cluster.AllToAllReduceMatrix(update.p_h, &acct);
  s.Commit(StepPhase::kGramReduce, acct, wall);
}

/// The loss superstep (§IV-B4): the loss from the reduced Grams and the
/// last mode's cached MTTKRP, with one scalar reduction. Returns the loss.
double LossPhase(StepState& s, const Matrix& mttkrp_last) {
  const WallTimer wall;
  const size_t order = s.order;
  SuperstepAccounting acct = s.cluster.NewSuperstep();
  std::vector<Matrix> g01(order);
  for (size_t k = 0; k < order; ++k) {
    g01[k] = LinearCombine(1.0, s.g0[k], 1.0, s.g1[k]);
  }
  const double a0_model_norm_sq = HadamardSum(s.g0);
  const double full_model_norm_sq = HadamardSum(g01);
  const double cross = HadamardSum(s.h);

  // Partial inner products over the last mode's owned rows, reduced.
  const size_t last = order - 1;
  std::vector<double> partial_inner(s.workers, 0.0);
  s.exec.Run(&acct, [&](uint32_t w, SuperstepAccounting& shard) {
    for (uint32_t q = w; q < s.parts; q += s.workers) {
      double local = 0.0;
      for (uint64_t row : s.rows_of_part[last][q]) {
        const size_t r = static_cast<size_t>(row);
        local += s.kern.dot_strided(mttkrp_last.RowPtr(r), 1,
                                    s.factors[last].RowPtr(r), 1, s.rank);
      }
      partial_inner[w] += local;
      shard.AddTask(w, s.rows_of_part[last][q].size() * s.rank);
    }
  });
  double inner = s.cluster.AllToAllReduceScalar(partial_inner, &acct);
  if (!s.options.als.reuse_intermediates) {
    // Ablation: recompute the inner product by streaming the tensor again
    // (extra O(nnz·N·R) work and an extra reduction round).
    inner = KruskalTensor(s.factors).InnerWithSparse(s.delta);
    s.exec.Run(&acct, [&](uint32_t w, SuperstepAccounting& shard) {
      for (uint32_t q = w; q < s.parts; q += s.workers) {
        const uint64_t part_nnz = s.mode_data[last].part_tensors[q].nnz();
        shard.AddSparseTask(w, part_nnz, MttkrpFlops(part_nnz, order, s.rank));
      }
    });
    (void)s.cluster.AllToAllReduceScalar(partial_inner, &acct);
  }
  s.Commit(StepPhase::kLoss, acct, wall);

  const double mu = s.options.als.mu;
  double loss = 0.0;
  if (s.has_prev) {
    loss += mu * (s.prev_model_norm_sq + a0_model_norm_sq - 2.0 * cross);
  }
  loss += s.delta_norm_sq + (full_model_norm_sq - a0_model_norm_sq) -
          2.0 * inner;
  return loss < 0.0 ? 0.0 : loss;
}

/// A worker failure, detected at the BSP barrier (the boundary where a
/// real driver notices the missing heartbeat). Lost state is exactly the
/// crashed worker's factor shard — everything else is replicated or
/// rebuilt from the partitioned tensor, which is re-read from stable
/// storage like an RDD/lineage re-materialization. `sim_sweeps_start` is
/// the clock when the sweeps began.
void RecoveryPhase(StepState& s, double sim_sweeps_start) {
  const WallTimer wall;
  const size_t rank = s.rank;
  const uint32_t workers = s.workers;
  RecoveryMetrics& recovery = s.injector.metrics();
  const uint32_t crashed = s.options.fault_plan.crash_worker % workers;
  DISMASTD_LOG(Warning) << "worker " << crashed << " crashed at superstep "
                        << s.cluster.committed_supersteps() << " (stream step "
                        << s.options.stream_step << "); recovering via "
                        << RecoveryModeName(s.options.recovery);
  SuperstepAccounting acct = s.cluster.NewSuperstep();
  const bool replay = s.options.recovery == RecoveryMode::kCheckpoint;
  if (replay) {
    ++recovery.checkpoint_recoveries;
    // The pre-crash sweeps are discarded work: they stay on the clock
    // (they happened) and are attributed to recovery here.
    recovery.recovery_sim_seconds +=
        s.cluster.ElapsedSimSeconds() - sim_sweeps_start;
    // Every worker reloads its factor shard from the last per-step
    // checkpoint — the step's input state — and the sweeps replay
    // bit-exactly: the CRC frame plus retransmission guarantees message
    // faults never silently alter data.
    s.factors = s.init_factors;
    for (uint32_t w = 0; w < workers; ++w) {
      uint64_t shard_rows = 0;
      for (size_t n = 0; n < s.order; ++n) {
        for (uint32_t q = w; q < s.parts; q += workers) {
          shard_rows += s.rows_of_part[n][q].size();
        }
      }
      acct.AddReceive(w, RowTransferBytes(shard_rows, rank));
    }
    s.result.als.loss_history.clear();
    s.result.als.iterations = 0;
    s.m.sim_seconds_per_sweep.clear();
  } else {
    ++recovery.degraded_recoveries;
    // Degraded continuation: only the crashed worker's shard is rebuilt.
    // Old-range rows come from the previous snapshot's Kruskal
    // approximation (Eq. 2); new rows are re-drawn from the deterministic
    // initialization. The surviving workers' progress is kept, so the run
    // continues instead of replaying.
    uint64_t lost_rows = 0;
    for (size_t n = 0; n < s.order; ++n) {
      const size_t old_rows_n = static_cast<size_t>(s.old_dims[n]);
      for (uint32_t q = crashed % workers; q < s.parts; q += workers) {
        for (uint64_t row : s.rows_of_part[n][q]) {
          const size_t r = static_cast<size_t>(row);
          if (r < old_rows_n) {
            std::copy(s.prev.factor(n).RowPtr(r),
                      s.prev.factor(n).RowPtr(r) + rank,
                      s.factors[n].RowPtr(r));
            ++recovery.rows_rebuilt_from_prev;
          } else {
            std::copy(s.init_factors[n].RowPtr(r),
                      s.init_factors[n].RowPtr(r) + rank,
                      s.factors[n].RowPtr(r));
            ++recovery.rows_reinitialized;
          }
          ++lost_rows;
        }
      }
    }
    // The replacement worker pulls its rebuilt shard over the wire.
    acct.AddReceive(crashed, RowTransferBytes(lost_rows, rank));
  }
  // Either way the replicated products are stale — rebuild them in the
  // same recovery superstep before the next sweep. A checkpoint replay
  // restored the step's input factors, whose old rows are Ã again.
  RebuildProducts(s, /*old_rows_are_prev=*/replay, &acct);
  recovery.recovery_sim_seconds += s.Commit(StepPhase::kRecovery, acct, wall);
}

/// Fills the step record from the cluster's totals, closes the elastic
/// feedback loop and publishes the run's series into the registry.
void FinishStep(StepState& s, obs::SpanTimer& wall) {
  StreamStepMetrics& m = s.m;
  Cluster& cluster = s.cluster;
  m.step = s.options.stream_step;
  m.dims = s.delta.dims();
  m.processed_nnz = s.delta.nnz();
  m.iterations = s.result.als.iterations;
  m.final_loss = s.result.als.loss_history.empty()
                     ? 0.0
                     : s.result.als.loss_history.back();
  if (!m.sim_seconds_per_sweep.empty()) {
    double sweep_sum = 0.0;
    for (double sweep : m.sim_seconds_per_sweep) sweep_sum += sweep;
    m.sim_seconds_per_iteration =
        sweep_sum / static_cast<double>(m.sim_seconds_per_sweep.size());
  }
  m.sim_seconds_total = cluster.ElapsedSimSeconds();
  m.comm_messages = cluster.total_comm_messages();
  m.comm_bytes = cluster.total_comm_bytes();
  m.flops = cluster.total_flops();
  m.wall_seconds = wall.Stop();
  m.recovery = s.injector.metrics();
  m.orphaned_messages = cluster.network().stats().orphan_events;
  m.leaked_messages = cluster.network().stats().orphan_messages;
  m.num_workers = s.workers;
  const std::vector<double>& busy = cluster.per_worker_busy_seconds();
  for (double b : busy) {
    m.busy_seconds_max = std::max(m.busy_seconds_max, b);
    m.busy_seconds_avg += b;
  }
  if (!busy.empty()) m.busy_seconds_avg /= static_cast<double>(busy.size());
  m.load_imbalance = m.busy_seconds_avg > 0.0
                         ? m.busy_seconds_max / m.busy_seconds_avg
                         : 1.0;
  if (s.elastic != nullptr) {
    m.elastic_active = true;
    m.elastic_repartitioned = s.eplan.repartition;
    m.workers_added = s.eplan.workers_added;
    m.workers_drained = s.eplan.workers_drained;
    // Close the feedback loop: the monitor folds this step's realized
    // per-worker load into the rolling signal the next step consults.
    s.elastic->EndStep(busy);
  }

  obs::MetricRegistry* reg = s.options.metrics;
  if (reg == nullptr) return;
  cluster.network().stats().PublishTo(reg);
  m.recovery.PublishTo(reg);
  const auto phase_gauge = [reg](const char* phase) {
    return reg->GetGauge("dismastd_core_sim_seconds", {{"phase", phase}},
                         "Simulated seconds spent per phase, accumulated "
                         "over the registry's lifetime");
  };
  phase_gauge("total")->Add(m.sim_seconds_total);
  for (StepPhase phase : kStepPhases) {
    phase_gauge(StepPhaseName(phase))->Add(m.phase_seconds[phase].sim);
  }
  for (size_t n = 0; n < m.balance_per_mode.size(); ++n) {
    PublishBalanceTo(m.balance_per_mode[n], n, reg);
  }
  if (s.elastic != nullptr) s.elastic->PublishTo(reg);
  reg->GetCounter("dismastd_core_flops_total", {},
                  "Counted floating-point work across all workers")
      ->Add(m.flops);
  reg->GetCounter("dismastd_core_supersteps_total", {},
                  "Committed BSP supersteps")
      ->Add(cluster.committed_supersteps());
  cluster.network().AttachMessageByteHistogram(nullptr);
}

}  // namespace

DistributedResult DisMastdDecompose(const SparseTensor& delta,
                                    const std::vector<uint64_t>& old_dims,
                                    const KruskalTensor& prev,
                                    const DistributedOptions& options) {
  obs::SpanTimer wall(options.tracer, "dismastd_decompose", "core", "driver");
  DISMASTD_CHECK_OK(options.Validate());
  DISMASTD_CHECK(old_dims.size() == delta.order());
  StepState s(delta, old_dims, prev, options);
  obs::Tracer* tracer = options.tracer;
  const bool trace_steps = obs::Active(tracer);
  const bool trace_phases =
      trace_steps && tracer->detail() >= obs::TraceDetail::kPhases;

  // Phase 0 (elastic only): the coordinator's step plan — scale out,
  // repartition, migrate, scale in — before the decomposition proper.
  if (s.eplan.workers_added > 0) s.cluster.AddWorkers(s.eplan.workers_added);
  if (s.eplan.repartition) {
    RepartitionPhase(s);
    if (s.has_prev || s.eplan.workers_added > 0) MigratePhase(s);
  }
  if (s.eplan.workers_drained > 0) {
    // The drained ranks' state moved away in the migrate superstep; the
    // drain itself is a boundary operation, like checkpoint handoff.
    DISMASTD_CHECK_OK(s.cluster.DrainWorkers(s.eplan.workers_drained));
  }

  // Phase 1: data partitioning (§IV-A).
  PartitionPhase(s);

  // Phase 2: distributed tensor decomposition (§IV-B).
  s.factors = InitializeDtdFactors(delta.dims(), old_dims, prev, options.als);
  if (s.injector.CrashArmed()) s.init_factors = s.factors;
  ProductsPhase(s);

  const double sim_sweeps_start = s.cluster.ElapsedSimSeconds();
  double sim_before_sweep = sim_sweeps_start;
  double prev_loss = -1.0;
  for (size_t iter = 0; iter < options.als.max_iterations; ++iter) {
    if (trace_steps) {
      tracer->BeginSim(obs::Tracer::kDriverLane,
                       ("iter " + std::to_string(iter)).c_str(), "iteration",
                       s.cluster.ElapsedSimSeconds());
    }
    Matrix mttkrp_last;
    for (size_t n = 0; n < s.order; ++n) {
      if (trace_phases) {
        tracer->BeginSim(obs::Tracer::kDriverLane,
                         ("mode " + std::to_string(n)).c_str(), "mode",
                         s.cluster.ElapsedSimSeconds());
      }
      ModeUpdate update = MttkrpUpdatePhase(s, n);
      GramReducePhase(s, n, update);
      if (trace_phases) {
        tracer->EndSim(obs::Tracer::kDriverLane, s.cluster.ElapsedSimSeconds());
      }
      if (n + 1 == s.order) mttkrp_last = std::move(update.mttkrp);
    }
    const double loss = LossPhase(s, mttkrp_last);
    s.result.als.loss_history.push_back(loss);
    ++s.result.als.iterations;

    const double sim_now = s.cluster.ElapsedSimSeconds();
    s.m.sim_seconds_per_sweep.push_back(sim_now - sim_before_sweep);
    sim_before_sweep = sim_now;
    if (trace_steps) tracer->EndSim(obs::Tracer::kDriverLane, sim_now);

    // The crash plan fires at most once per run, at a sweep's barrier.
    if (s.injector.CrashPending(s.cluster.committed_supersteps())) {
      RecoveryPhase(s, sim_sweeps_start);
      // A checkpoint replay restarts the sweeps from the step's input.
      if (options.recovery == RecoveryMode::kCheckpoint) {
        iter = static_cast<size_t>(-1);
      }
      sim_before_sweep = s.cluster.ElapsedSimSeconds();
      prev_loss = -1.0;  // the loss will jump; don't spuriously converge
      continue;
    }

    if (options.als.tolerance > 0.0 && prev_loss >= 0.0) {
      const double denom_loss = prev_loss > 0.0 ? prev_loss : 1.0;
      if (std::abs(prev_loss - loss) / denom_loss < options.als.tolerance) {
        break;
      }
    }
    prev_loss = loss;
  }

  s.result.als.factors = KruskalTensor(std::move(s.factors));
  FinishStep(s, wall);
  return std::move(s.result);
}

}  // namespace dismastd
