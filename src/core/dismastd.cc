#include "core/dismastd.h"

#include <algorithm>
#include <cmath>

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

double DistributedRunMetrics::MeanIterationSeconds() const {
  if (sim_seconds_per_iteration.empty()) return 0.0;
  double sum = 0.0;
  for (double s : sim_seconds_per_iteration) sum += s;
  return sum / static_cast<double>(sim_seconds_per_iteration.size());
}

Status DistributedOptions::Validate() const {
  DISMASTD_RETURN_IF_ERROR(als.Validate());
  if (num_workers < 1) {
    return Status::InvalidArgument("num_workers must be >= 1");
  }
  DISMASTD_RETURN_IF_ERROR(cost_model.Validate());
  DISMASTD_RETURN_IF_ERROR(fault_plan.Validate());
  return Status::OK();
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

}  // namespace

// Parallel execution layout: every per-worker compute step below runs
// through WorkerExecutor::Run with worker w handling its partitions
// (q ≡ w mod M) in ascending q order — exactly the per-worker sub-sequence
// of the old sequential q-loop. Each worker writes only state it owns
// (its factor/MTTKRP rows, its partial matrices, its accounting shard), so
// the parallel schedule is race-free and bit-identical to the sequential
// one; reductions and the simulated clock stay on the calling thread.
DistributedResult DisMastdDecompose(const SparseTensor& delta,
                                    const std::vector<uint64_t>& old_dims,
                                    const KruskalTensor& prev,
                                    const DistributedOptions& options) {
  obs::SpanTimer wall(options.tracer, "dismastd_decompose", "core", "driver");
  DISMASTD_CHECK_OK(options.Validate());
  // Dispatched once here; every flop on a factor row below goes through
  // this table. The blocked-8 contract (kernels/kernels.h) keeps fp64
  // results bit-exact across backends, and the per-worker shards keep them
  // bit-exact across thread counts.
  const kernels::KernelTable& kern = kernels::Get();
  const size_t order = delta.order();
  const size_t rank = options.als.rank;
  const double mu = options.als.mu;
  DISMASTD_CHECK(old_dims.size() == order);
  bool has_prev = false;
  for (uint64_t d : old_dims) has_prev = has_prev || d > 0;

  // With an elastic coordinator attached, the coordinator decides this
  // step's cluster shape and partition before any compute: due scale
  // events apply first, then the load monitor may trigger an online
  // repartition of the decayed per-slice loads. All its inputs are
  // simulated metrics, so the plan is identical across thread counts.
  ElasticCoordinator* elastic = options.elastic;
  ElasticStepPlan eplan;
  if (elastic != nullptr) {
    eplan = elastic->BeginStep(delta, options.stream_step);
  }
  const uint32_t workers =
      elastic != nullptr ? eplan.num_workers : options.num_workers;
  const uint32_t parts =
      elastic != nullptr
          ? elastic->num_parts()
          : (options.parts_per_mode == 0 ? workers : options.parts_per_mode);

  // The cluster starts at the pre-scale size: joiners must receive their
  // state over the fabric and leavers must hand theirs off before the
  // drain, the same boundary discipline checkpoint recovery uses.
  Cluster cluster(elastic != nullptr ? eplan.workers_before : workers,
                  options.cost_model);
  WorkerExecutor exec(workers, options.execution);
  DistributedResult result;

  // Deterministic fault source for this run. Attached only when the plan
  // can inject something for this streaming step, so a fault-free run is
  // byte-for-byte identical to a build without the fault layer. All
  // injector calls happen on this (driver) thread, so the RNG stream is
  // independent of the execution engine's thread count.
  FaultInjector injector(options.fault_plan, options.stream_step);
  if (injector.enabled()) cluster.AttachFaultInjector(&injector);

  // Observability sinks. Sim-clock spans land on the tracer's driver lane
  // (this thread); the registry's histogram pointer is stable, so the
  // network records message sizes into it lock-free.
  obs::Tracer* tracer = options.tracer;
  if (obs::Active(tracer)) cluster.AttachTracer(tracer);
  const bool trace_phases =
      obs::Active(tracer) && tracer->detail() >= obs::TraceDetail::kPhases;
  const bool trace_steps = obs::Active(tracer);
  if (options.metrics != nullptr) {
    cluster.network().AttachMessageByteHistogram(options.metrics->GetHistogram(
        "dismastd_comm_message_wire_bytes", {},
        "Wire size of each remote message, in bytes"));
  }

  // ---------------------------------------------------------------------
  // Phase 0 (elastic only): execute the coordinator's step plan — scale
  // out, repartition, migrate, scale in — before the decomposition proper.
  // ---------------------------------------------------------------------
  if (elastic != nullptr && eplan.workers_added > 0) {
    cluster.AddWorkers(eplan.workers_added);
  }
  if (elastic != nullptr && eplan.repartition) {
    // Account the online GTP/MTP recompute as its own superstep: every
    // worker re-counts its resident non-zeros and the driver's boundary
    // assignment is spread over the cluster, mirroring phase 1's cost.
    const double repart_before = cluster.ElapsedSimSeconds();
    SuperstepAccounting racct = cluster.NewSuperstep();
    for (size_t n = 0; n < order; ++n) {
      const uint64_t slices =
          elastic->partitioning().modes[n].slice_to_part.size();
      const uint64_t assign_cost =
          options.partitioner == PartitionerKind::kMaxMin
              ? slices *
                    (64 - static_cast<uint64_t>(__builtin_clzll(slices | 1)))
              : slices;
      exec.Run(&racct, [&](uint32_t w, SuperstepAccounting& shard) {
        shard.AddSparseTask(w, delta.nnz() / workers + 1,
                            assign_cost / workers + 1);
      });
    }
    cluster.CommitSuperstep(racct, "repartition");
    result.metrics.sim_seconds_repartition =
        cluster.ElapsedSimSeconds() - repart_before;
    elastic->totals().repartition_sim_seconds +=
        result.metrics.sim_seconds_repartition;

    if (has_prev || eplan.workers_added > 0) {
      // Live migration: every factor row whose owner changed moves from
      // its old worker to its new one through the fabric — CRC-framed,
      // retried under injected faults (TransmitReliably inside SendRows),
      // and booked as migration traffic so rebalance cost stays separate
      // from algorithm traffic. Joiners additionally receive the
      // replicated R x R Gram products.
      ScopedTrafficClass migration_traffic(
          cluster.network(), SimulatedNetwork::TrafficClass::kMigration);
      const double migrate_before = cluster.ElapsedSimSeconds();
      const uint64_t migration_bytes_before =
          cluster.network().stats().migration_bytes;
      SuperstepAccounting macct = cluster.NewSuperstep();
      uint64_t migrated_rows = 0;
      for (size_t n = 0; has_prev && n < order; ++n) {
        const ModePartition& prev_mp = eplan.prev_partitioning.modes[n];
        const ModePartition& new_mp = elastic->partitioning().modes[n];
        // Only rows that exist in the previous factors can move; rows of
        // this step's new slices are initialized in place on their owner.
        const uint64_t movable = std::min<uint64_t>(
            old_dims[n], prev_mp.slice_to_part.size());
        std::vector<std::vector<std::vector<uint64_t>>> moved(
            eplan.workers_before, std::vector<std::vector<uint64_t>>(workers));
        for (uint64_t i = 0; i < movable; ++i) {
          const uint32_t src =
              prev_mp.slice_to_part[i] % eplan.workers_before;
          const uint32_t dst = new_mp.slice_to_part[i] % workers;
          if (src != dst) moved[src][dst].push_back(i);
        }
        for (uint32_t src = 0; src < eplan.workers_before; ++src) {
          for (uint32_t dst = 0; dst < workers; ++dst) {
            const std::vector<uint64_t>& rows = moved[src][dst];
            if (rows.empty()) continue;
            Matrix block(rows.size(), rank);
            for (size_t i = 0; i < rows.size(); ++i) {
              const double* src_row =
                  prev.factor(n).RowPtr(static_cast<size_t>(rows[i]));
              std::copy(src_row, src_row + rank, block.RowPtr(i));
            }
            Result<Matrix> landed = cluster.SendRows(src, dst, block, &macct);
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
        // State handoff to each joiner: the three replicated R x R
        // products per mode (its factor rows arrived above).
        for (size_t n = 0; n < order; ++n) {
          for (int rep = 0; rep < 3; ++rep) {
            Result<Matrix> gram =
                cluster.SendRows(0, w, Matrix(rank, rank), &macct);
            DISMASTD_CHECK_OK(gram.status());
          }
        }
      }
      cluster.CommitSuperstep(macct, "migrate");
      result.metrics.sim_seconds_migrate =
          cluster.ElapsedSimSeconds() - migrate_before;
      result.metrics.migrated_rows = migrated_rows;
      result.metrics.migration_bytes =
          cluster.network().stats().migration_bytes - migration_bytes_before;
      elastic->totals().migrated_rows += migrated_rows;
      elastic->totals().migration_bytes += result.metrics.migration_bytes;
      elastic->totals().migration_sim_seconds +=
          result.metrics.sim_seconds_migrate;
    }
  }
  if (elastic != nullptr && eplan.workers_drained > 0) {
    // The drained ranks' state moved away in the migrate superstep; the
    // drain itself is a boundary operation, like checkpoint handoff.
    DISMASTD_CHECK_OK(cluster.DrainWorkers(eplan.workers_drained));
  }

  // ---------------------------------------------------------------------
  // Phase 1: data partitioning (§IV-A).
  // ---------------------------------------------------------------------
  TensorPartitioning partitioning;
  std::vector<ModePartitionData> mode_data(order);
  std::vector<std::vector<std::vector<uint64_t>>> rows_of_part(order);
  {
    SuperstepAccounting acct = cluster.NewSuperstep();
    const uint64_t entry_bytes = EntryBytes(order);
    for (size_t n = 0; n < order; ++n) {
      const std::vector<uint64_t> slice_nnz = delta.SliceNnzCounts(n);
      ModePartition mp;
      if (elastic != nullptr) {
        // The coordinator's persistent (step-spanning) partition, with
        // this delta's loads filled in so balance reporting and shipping
        // accounting reflect what this step actually moves.
        mp = elastic->partitioning().modes[n];
        std::fill(mp.part_nnz.begin(), mp.part_nnz.end(), 0);
        for (uint64_t i = 0; i < slice_nnz.size(); ++i) {
          mp.part_nnz[mp.slice_to_part[i]] += slice_nnz[i];
        }
      } else {
        mp = PartitionMode(options.partitioner, slice_nnz, parts);
      }
      result.metrics.balance_per_mode.push_back(ComputeBalance(mp));
      // Counting pass + boundary assignment cost, spread over workers
      // (O(nnz + I) for GTP, O(nnz + I log I) for MTP; Theorem 2).
      const uint64_t slices = slice_nnz.size();
      const uint64_t assign_cost =
          options.partitioner == PartitionerKind::kMaxMin
              ? slices * (64 - static_cast<uint64_t>(
                                   __builtin_clzll(slices | 1)))
              : slices;
      exec.Run(&acct, [&](uint32_t w, SuperstepAccounting& shard) {
        // Counting pass over the non-zeros (sparse) plus boundary
        // assignment (dense index work).
        shard.AddSparseTask(w, delta.nnz() / workers + 1,
                            assign_cost / workers + 1);
      });
      // Ship every non-zero (and the induced factor rows) to its owner
      // (Theorem 4's O(nnz) + O(NIR) communication terms). A one-worker
      // cluster keeps everything local.
      for (uint32_t q = 0; workers > 1 && q < parts; ++q) {
        const uint32_t dst = q % workers;
        const uint64_t tensor_bytes = mp.part_nnz[q] * entry_bytes;
        acct.AddSend((q + 1) % workers, tensor_bytes);
        acct.AddReceive(dst, tensor_bytes);
      }
      partitioning.modes.push_back(std::move(mp));
    }
    for (size_t n = 0; n < order; ++n) {
      rows_of_part[n] = RowsOfParts(partitioning.modes[n]);
      for (uint32_t q = 0; workers > 1 && q < parts; ++q) {
        const uint32_t dst = q % workers;
        const uint64_t row_bytes =
            RowTransferBytes(rows_of_part[n][q].size(), rank);
        acct.AddSend((q + 1) % workers, row_bytes);
        acct.AddReceive(dst, row_bytes);
      }
    }
    // The per-mode partition-data builds (the O(nnz) split + row-access
    // sets) are independent of each other — run them on the pool.
    exec.pool().ParallelFor(order, [&](size_t n) {
      mode_data[n] = BuildModePartitionData(delta, partitioning, n);
    });
    cluster.CommitSuperstep(acct, "partition");
    result.metrics.sim_seconds_partitioning = cluster.ElapsedSimSeconds();
  }

  // Static per-iteration remote-row fetch plan: plan[n][src][dst] = number
  // of factor rows worker `dst` must pull from `src` before updating mode n.
  std::vector<std::vector<std::vector<uint64_t>>> fetch_plan(
      order, std::vector<std::vector<uint64_t>>(
                 workers, std::vector<uint64_t>(workers, 0)));
  for (size_t n = 0; n < order; ++n) {
    for (uint32_t q = 0; q < parts; ++q) {
      const uint32_t dst = q % workers;
      for (size_t k = 0; k < order; ++k) {
        if (k == n) continue;
        for (uint64_t row : mode_data[n].needed_rows[q][k]) {
          const uint32_t owner_part =
              partitioning.modes[k].slice_to_part[row];
          const uint32_t src = owner_part % workers;
          if (src != dst) ++fetch_plan[n][src][dst];
        }
      }
    }
  }

  // ---------------------------------------------------------------------
  // Phase 2: distributed tensor decomposition (§IV-B).
  // ---------------------------------------------------------------------
  std::vector<Matrix> factors =
      InitializeDtdFactors(delta.dims(), old_dims, prev, options.als);
  // Crash recovery needs the step's input state: kCheckpoint replays from
  // it (it is exactly what the last per-step checkpoint holds), kDegraded
  // re-draws a lost new row from it.
  std::vector<Matrix> init_factors;
  if (injector.CrashArmed()) init_factors = factors;

  // Replicated R x R products (cached on every worker, §IV-B2/3).
  std::vector<Matrix> g0(order), g1(order), h(order);
  // While A_n's old rows are Ã_n bit for bit — at step start
  // (InitializeDtdFactors) and after a checkpoint replay — one Gram ÃᵀÃ
  // per mode stands in for g0 = A0ᵀA0 and h = ÃᵀA0. It is also mode n's
  // factor of the constant loss ingredient ‖[[Ã_1..Ã_N]]‖² (§IV-B4).
  std::vector<Matrix> prev_grams(has_prev ? order : 0);
  auto local_products = [&](size_t n, bool old_rows_are_prev) {
    const size_t old_rows = static_cast<size_t>(old_dims[n]);
    const Matrix a1 = factors[n].RowSlice(old_rows, factors[n].rows());
    g1[n] = a1.rows() > 0 ? TransposeTimes(a1, a1) : Matrix(rank, rank);
    if (old_rows == 0) {
      g0[n] = Matrix(rank, rank);
      h[n] = Matrix(rank, rank);
    } else if (old_rows_are_prev) {
      g0[n] = prev_grams[n];
      h[n] = prev_grams[n];
    } else {
      const Matrix a0 = factors[n].RowSlice(0, old_rows);
      g0[n] = TransposeTimes(a0, a0);
      h[n] = TransposeTimes(prev.factor(n), a0);
    }
  };
  // Builds the canonical replicated products and accounts one products
  // superstep: each worker computes partials over its owned rows and
  // all-to-all reduces the three R x R products per mode. Used once at
  // initialization and again after a crash recovery.
  auto products_superstep = [&](SuperstepAccounting& acct,
                                bool old_rows_are_prev) {
    exec.pool().ParallelFor(
        order, [&](size_t n) { local_products(n, old_rows_are_prev); });
    for (size_t n = 0; n < order; ++n) {
      std::vector<Matrix> partial_stub(workers, Matrix(rank, rank));
      // Account the reduction traffic for the three products per mode.
      for (int rep = 0; rep < 3; ++rep) {
        (void)cluster.AllToAllReduceMatrix(partial_stub, &acct);
      }
      exec.Run(&acct, [&](uint32_t w, SuperstepAccounting& shard) {
        for (uint32_t q = w; q < parts; q += workers) {
          shard.AddTask(w, rows_of_part[n][q].size() * 3 * rank * rank);
        }
      });
    }
  };
  if (has_prev) {
    exec.pool().ParallelFor(order, [&](size_t n) {
      prev_grams[n] = TransposeTimes(prev.factor(n), prev.factor(n));
    });
  }
  {
    SuperstepAccounting acct = cluster.NewSuperstep();
    products_superstep(acct, /*old_rows_are_prev=*/true);
    cluster.CommitSuperstep(acct, "products");
  }

  const double prev_model_norm_sq = has_prev ? HadamardSum(prev_grams) : 0.0;
  const double delta_norm_sq = delta.NormSquared();

  const double sim_iterations_start = cluster.ElapsedSimSeconds();
  double sim_before_iters = cluster.ElapsedSimSeconds();
  double prev_loss = -1.0;

  for (size_t iter = 0; iter < options.als.max_iterations; ++iter) {
    if (trace_steps) {
      tracer->BeginSim(obs::Tracer::kDriverLane,
                       ("iter " + std::to_string(iter)).c_str(), "iteration",
                       cluster.ElapsedSimSeconds());
    }
    Matrix mttkrp_last;
    for (size_t n = 0; n < order; ++n) {
      const size_t old_rows = static_cast<size_t>(old_dims[n]);
      if (trace_phases) {
        tracer->BeginSim(obs::Tracer::kDriverLane,
                         ("mode " + std::to_string(n)).c_str(), "mode",
                         cluster.ElapsedSimSeconds());
      }

      // --- Superstep A: fetch remote rows, MTTKRP, row-wise update. ---
      SuperstepAccounting acct = cluster.NewSuperstep();
      for (uint32_t src = 0; src < workers; ++src) {
        for (uint32_t dst = 0; dst < workers; ++dst) {
          const uint64_t rows = fetch_plan[n][src][dst];
          if (rows == 0) continue;
          const uint64_t bytes = RowTransferBytes(rows, rank);
          acct.AddSend(src, bytes);
          acct.AddReceive(dst, bytes);
        }
      }

      Matrix mttkrp(factors[n].rows(), rank);
      std::vector<const Matrix*> factor_ptrs(order);
      for (size_t k = 0; k < order; ++k) factor_ptrs[k] = &factors[k];
      // Partition q's slices are disjoint from every other partition's,
      // so accumulating into the shared buffer is race-free and yields
      // the same per-row contraction order as the centralized pass.
      exec.Run(&acct, [&](uint32_t w, SuperstepAccounting& shard) {
        for (uint32_t q = w; q < parts; q += workers) {
          const SparseTensor& local = mode_data[n].part_tensors[q];
          MttkrpAccumulate(local, factor_ptrs, n, &mttkrp);
          shard.AddSparseTask(w, local.nnz(),
                              MttkrpFlops(local.nnz(), order, rank));
        }
      });

      // Row-wise factor update (Eq. 5) on each owner partition. Each
      // worker rewrites only the factor rows its partitions own. The two
      // R x R systems are replicated and shared by every row of the mode,
      // so the driver builds and factors them once; workers stream their
      // rows through the row-list solve (old rows precede new rows in each
      // ascending partition row list) and add each solved chunk to their
      // Gram partials for superstep B while its rows are still in cache.
      const DtdModeSystems sys = FactorDtdModeSystems(g0, g1, h, n, mu);
      const Matrix* prev_factor = old_rows > 0 ? &prev.factor(n) : nullptr;
      std::vector<Matrix> p_g0(workers, Matrix(rank, rank));
      std::vector<Matrix> p_g1(workers, Matrix(rank, rank));
      std::vector<Matrix> p_h(workers, Matrix(rank, rank));
      exec.Run(&acct, [&](uint32_t w, SuperstepAccounting& shard) {
        const DtdGramPartials partials{&p_g0[w], &p_h[w], &p_g1[w]};
        for (uint32_t q = w; q < parts; q += workers) {
          const auto& rows = rows_of_part[n][q];
          if (rows.empty()) continue;
          DtdUpdateRows(kern, sys, prev_factor, mttkrp, old_rows, rows.data(),
                        rows.size(), &factors[n], &partials);
          // Simulated cost is per partition: on a real cluster each owner
          // factors and solves its own copy of the replicated system.
          shard.AddTask(w, rows.size() * 4 * rank * rank +
                               rank * rank * rank);
        }
      });
      {
        const double before = cluster.ElapsedSimSeconds();
        cluster.CommitSuperstep(acct, "mttkrp_update");
        result.metrics.sim_seconds_mttkrp_update +=
            cluster.ElapsedSimSeconds() - before;
      }

      // --- Superstep B: all-to-all reduction of the Gram products. ---
      // The simulated cluster still charges the partials here, where the
      // paper computes them: 2R² per old row (g0 and h), R² per new row.
      SuperstepAccounting reduce_acct = cluster.NewSuperstep();
      exec.Run(&reduce_acct, [&](uint32_t w, SuperstepAccounting& shard) {
        for (uint32_t q = w; q < parts; q += workers) {
          // Ascending rows: the old-range rows form the list's prefix.
          const auto& rows = rows_of_part[n][q];
          const size_t num_old = static_cast<size_t>(
              std::lower_bound(rows.begin(), rows.end(),
                               static_cast<uint64_t>(old_rows)) -
              rows.begin());
          const size_t num_new = rows.size() - num_old;
          shard.AddTask(w, (2 * num_old + num_new) * rank * rank);
        }
      });
      g0[n] = cluster.AllToAllReduceMatrix(p_g0, &reduce_acct);
      g1[n] = cluster.AllToAllReduceMatrix(p_g1, &reduce_acct);
      h[n] = cluster.AllToAllReduceMatrix(p_h, &reduce_acct);
      {
        const double before = cluster.ElapsedSimSeconds();
        cluster.CommitSuperstep(reduce_acct, "gram_reduce");
        result.metrics.sim_seconds_gram_reduce +=
            cluster.ElapsedSimSeconds() - before;
      }
      if (trace_phases) {
        tracer->EndSim(obs::Tracer::kDriverLane, cluster.ElapsedSimSeconds());
      }

      if (n + 1 == order) mttkrp_last = std::move(mttkrp);
    }

    // --- Loss superstep (§IV-B4): reuse Grams + the cached MTTKRP. ---
    SuperstepAccounting loss_acct = cluster.NewSuperstep();
    std::vector<Matrix> g01(order);
    for (size_t k = 0; k < order; ++k) {
      g01[k] = LinearCombine(1.0, g0[k], 1.0, g1[k]);
    }
    const double a0_model_norm_sq = HadamardSum(g0);
    const double full_model_norm_sq = HadamardSum(g01);
    const double cross = HadamardSum(h);

    // Partial inner products over the last mode's owned rows, reduced.
    const size_t last = order - 1;
    std::vector<double> partial_inner(workers, 0.0);
    exec.Run(&loss_acct, [&](uint32_t w, SuperstepAccounting& shard) {
      for (uint32_t q = w; q < parts; q += workers) {
        double local = 0.0;
        for (uint64_t row : rows_of_part[last][q]) {
          const size_t r = static_cast<size_t>(row);
          local += kern.dot_strided(mttkrp_last.RowPtr(r), 1,
                                    factors[last].RowPtr(r), 1, rank);
        }
        partial_inner[w] += local;
        shard.AddTask(w, rows_of_part[last][q].size() * rank);
      }
    });
    double inner = cluster.AllToAllReduceScalar(partial_inner, &loss_acct);
    if (!options.als.reuse_intermediates) {
      // Ablation: recompute the inner product by streaming the tensor
      // again (extra O(nnz·N·R) work and an extra reduction round).
      inner = KruskalTensor(factors).InnerWithSparse(delta);
      exec.Run(&loss_acct, [&](uint32_t w, SuperstepAccounting& shard) {
        for (uint32_t q = w; q < parts; q += workers) {
          const uint64_t part_nnz = mode_data[last].part_tensors[q].nnz();
          shard.AddSparseTask(w, part_nnz,
                              MttkrpFlops(part_nnz, order, rank));
        }
      });
      (void)cluster.AllToAllReduceScalar(partial_inner, &loss_acct);
    }
    {
      const double before = cluster.ElapsedSimSeconds();
      cluster.CommitSuperstep(loss_acct, "loss");
      result.metrics.sim_seconds_loss +=
          cluster.ElapsedSimSeconds() - before;
    }

    double loss = 0.0;
    if (has_prev) {
      loss += mu * (prev_model_norm_sq + a0_model_norm_sq - 2.0 * cross);
    }
    loss += delta_norm_sq + (full_model_norm_sq - a0_model_norm_sq) -
            2.0 * inner;
    if (loss < 0.0) loss = 0.0;
    result.als.loss_history.push_back(loss);
    ++result.als.iterations;

    const double sim_now = cluster.ElapsedSimSeconds();
    result.metrics.sim_seconds_per_iteration.push_back(sim_now -
                                                       sim_before_iters);
    sim_before_iters = sim_now;
    if (trace_steps) tracer->EndSim(obs::Tracer::kDriverLane, sim_now);

    // --- Crash schedule. A worker failure is detected at the BSP barrier
    // (the boundary where a real driver notices the missing heartbeat);
    // the plan fires at most once per run. Lost state is exactly the
    // crashed worker's factor shard — everything else is replicated or
    // rebuilt from the partitioned tensor, which is re-read from stable
    // storage like an RDD/lineage re-materialization. ---
    if (injector.CrashPending(cluster.committed_supersteps())) {
      const uint32_t crashed = options.fault_plan.crash_worker % workers;
      DISMASTD_LOG(Warning)
          << "worker " << crashed << " crashed at superstep "
          << cluster.committed_supersteps() << " (stream step "
          << options.stream_step << "); recovering via "
          << RecoveryModeName(options.recovery);
      SuperstepAccounting racct = cluster.NewSuperstep();
      if (options.recovery == RecoveryMode::kCheckpoint) {
        ++injector.metrics().checkpoint_recoveries;
        // The pre-crash sweeps are discarded work: they stay on the clock
        // (they happened) and are attributed to recovery here.
        injector.metrics().recovery_sim_seconds +=
            cluster.ElapsedSimSeconds() - sim_iterations_start;
        // Every worker reloads its factor shard from the last per-step
        // checkpoint — the step's input state — and the sweeps replay
        // bit-exactly: the CRC frame plus retransmission guarantees
        // message faults never silently alter data.
        factors = init_factors;
        for (uint32_t w = 0; w < workers; ++w) {
          uint64_t shard_rows = 0;
          for (size_t n = 0; n < order; ++n) {
            for (uint32_t q = w; q < parts; q += workers) {
              shard_rows += rows_of_part[n][q].size();
            }
          }
          racct.AddReceive(w, RowTransferBytes(shard_rows, rank));
        }
        result.als.loss_history.clear();
        result.als.iterations = 0;
        result.metrics.sim_seconds_per_iteration.clear();
        iter = static_cast<size_t>(-1);  // restart the sweep loop
      } else {
        ++injector.metrics().degraded_recoveries;
        // Degraded continuation: only the crashed worker's shard is
        // rebuilt. Old-range rows come from the previous snapshot's
        // Kruskal approximation (Eq. 2); new rows are re-drawn from the
        // deterministic initialization. The surviving workers' progress
        // is kept, so the run continues instead of replaying.
        uint64_t lost_rows = 0;
        for (size_t n = 0; n < order; ++n) {
          const size_t old_rows_n = static_cast<size_t>(old_dims[n]);
          for (uint32_t q = crashed % workers; q < parts; q += workers) {
            for (uint64_t row : rows_of_part[n][q]) {
              const size_t r = static_cast<size_t>(row);
              if (r < old_rows_n) {
                std::copy(prev.factor(n).RowPtr(r),
                          prev.factor(n).RowPtr(r) + rank,
                          factors[n].RowPtr(r));
                ++injector.metrics().rows_rebuilt_from_prev;
              } else {
                std::copy(init_factors[n].RowPtr(r),
                          init_factors[n].RowPtr(r) + rank,
                          factors[n].RowPtr(r));
                ++injector.metrics().rows_reinitialized;
              }
              ++lost_rows;
            }
          }
        }
        // The replacement worker pulls its rebuilt shard over the wire.
        racct.AddReceive(crashed, RowTransferBytes(lost_rows, rank));
      }
      // Either way the replicated products are stale — rebuild them in
      // one accounted recovery superstep before the next sweep. A
      // checkpoint replay restored the step's input factors, whose old
      // rows are Ã again.
      products_superstep(racct,
                         options.recovery == RecoveryMode::kCheckpoint);
      const double before_recovery_commit = cluster.ElapsedSimSeconds();
      cluster.CommitSuperstep(racct, "recovery");
      injector.metrics().recovery_sim_seconds +=
          cluster.ElapsedSimSeconds() - before_recovery_commit;
      sim_before_iters = cluster.ElapsedSimSeconds();
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

  result.als.factors = KruskalTensor(std::move(factors));
  result.metrics.sim_seconds_total = cluster.ElapsedSimSeconds();
  result.metrics.comm_messages = cluster.total_comm_messages();
  result.metrics.comm_payload_bytes = cluster.total_comm_bytes();
  result.metrics.total_flops = cluster.total_flops();
  result.metrics.wall_seconds = wall.Stop();
  result.metrics.recovery = injector.metrics();
  result.metrics.orphaned_messages = cluster.network().stats().orphan_events;
  result.metrics.leaked_messages = cluster.network().stats().orphan_messages;
  result.metrics.num_workers = workers;
  result.metrics.worker_busy_seconds = cluster.per_worker_busy_seconds();
  {
    double busy_max = 0.0, busy_sum = 0.0;
    for (double b : result.metrics.worker_busy_seconds) {
      busy_max = std::max(busy_max, b);
      busy_sum += b;
    }
    const double busy_avg =
        result.metrics.worker_busy_seconds.empty()
            ? 0.0
            : busy_sum /
                  static_cast<double>(result.metrics.worker_busy_seconds.size());
    result.metrics.load_imbalance = busy_avg > 0.0 ? busy_max / busy_avg : 1.0;
  }
  if (elastic != nullptr) {
    result.metrics.elastic_active = true;
    result.metrics.repartitioned = eplan.repartition;
    result.metrics.workers_added = eplan.workers_added;
    result.metrics.workers_drained = eplan.workers_drained;
    // Close the feedback loop: the monitor folds this step's realized
    // per-worker load into the rolling signal the next step consults.
    elastic->EndStep(result.metrics.worker_busy_seconds);
  }

  if (options.metrics != nullptr) {
    obs::MetricRegistry* reg = options.metrics;
    cluster.network().stats().PublishTo(reg);
    result.metrics.recovery.PublishTo(reg);
    const auto phase_gauge = [&](const char* phase, double seconds) {
      reg->GetGauge("dismastd_core_sim_seconds",
                    {{"phase", phase}},
                    "Simulated seconds spent per phase, accumulated over "
                    "the registry's lifetime")
          ->Add(seconds);
    };
    phase_gauge("total", result.metrics.sim_seconds_total);
    phase_gauge("partition", result.metrics.sim_seconds_partitioning);
    phase_gauge("mttkrp_update", result.metrics.sim_seconds_mttkrp_update);
    phase_gauge("gram_reduce", result.metrics.sim_seconds_gram_reduce);
    phase_gauge("loss", result.metrics.sim_seconds_loss);
    phase_gauge("repartition", result.metrics.sim_seconds_repartition);
    phase_gauge("migrate", result.metrics.sim_seconds_migrate);
    for (size_t n = 0; n < result.metrics.balance_per_mode.size(); ++n) {
      PublishBalanceTo(result.metrics.balance_per_mode[n], n, reg);
    }
    if (elastic != nullptr) elastic->PublishTo(reg);
    reg->GetCounter("dismastd_core_flops_total", {},
                    "Counted floating-point work across all workers")
        ->Add(result.metrics.total_flops);
    reg->GetCounter("dismastd_core_supersteps_total", {},
                    "Committed BSP supersteps")
        ->Add(cluster.committed_supersteps());
    cluster.network().AttachMessageByteHistogram(nullptr);
  }
  return result;
}

}  // namespace dismastd
