// Runtime kernel dispatch: probe CPUID once, honor the DISMASTD_KERNEL
// environment override, and hand out the selected table. ForceBackend /
// ResetDispatch exist for the --kernel flag and for tests that compare
// backends against each other.

#include "kernels/kernels.h"

#include <cstdlib>
#include <mutex>
#include <vector>

#include "kernels/kernels_detail.h"

namespace dismastd {
namespace kernels {
namespace {

struct DispatchState {
  const KernelTable* table = nullptr;
  std::string why;
};

std::mutex g_mu;
DispatchState g_state;

bool CpuHasAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

bool CpuHasAvx512() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512dq") &&
         __builtin_cpu_supports("avx512vl");
#else
  return false;
#endif
}

bool CompiledIn(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return true;
    case Backend::kAvx2:
#if defined(DISMASTD_KERNELS_HAVE_AVX2)
      return true;
#else
      return false;
#endif
    case Backend::kAvx512:
#if defined(DISMASTD_KERNELS_HAVE_AVX512)
      return true;
#else
      return false;
#endif
  }
  return false;
}

bool SupportedLocked(Backend backend) {
  if (!CompiledIn(backend)) return false;
  switch (backend) {
    case Backend::kScalar:
      return true;
    case Backend::kAvx2:
      return CpuHasAvx2();
    case Backend::kAvx512:
      return CpuHasAvx512();
  }
  return false;
}

Backend BestSupportedLocked() {
  if (SupportedLocked(Backend::kAvx512)) return Backend::kAvx512;
  if (SupportedLocked(Backend::kAvx2)) return Backend::kAvx2;
  return Backend::kScalar;
}

const KernelTable& TableFor(Backend backend) {
  switch (backend) {
#if defined(DISMASTD_KERNELS_HAVE_AVX2)
    case Backend::kAvx2:
      return Avx2Kernels();
#endif
#if defined(DISMASTD_KERNELS_HAVE_AVX512)
    case Backend::kAvx512:
      return Avx512Kernels();
#endif
    default:
      return ScalarKernels();
  }
}

std::string CpuidBits() {
  std::string bits = "cpuid";
  bool any = false;
  if (CpuHasAvx2()) {
    bits += " avx2";
    any = true;
  }
  if (CpuHasAvx512()) {
    bits += "+avx512f+avx512bw+avx512dq+avx512vl";
  }
  if (!any) bits += " (no simd)";
  return bits;
}

/// Startup dispatch: best CPUID-supported backend unless DISMASTD_KERNEL
/// names a supported one. Invalid or unsupported values fall back to the
/// CPUID choice and the explanation says so.
void AutoDispatchLocked() {
  const Backend best = BestSupportedLocked();
  Backend chosen = best;
  std::string why = std::string(BackendName(best)) + " (" + CpuidBits() + ")";
  const char* env = std::getenv("DISMASTD_KERNEL");
  if (env != nullptr && env[0] != '\0') {
    const std::string value(env);
    if (value != "native" && value != "best" && value != "auto") {
      auto parsed = ParseBackend(value);
      if (!parsed.ok()) {
        why = std::string(BackendName(best)) + " (DISMASTD_KERNEL=" + value +
              " unrecognized; " + CpuidBits() + ")";
      } else if (!SupportedLocked(parsed.value())) {
        why = std::string(BackendName(best)) + " (DISMASTD_KERNEL=" + value +
              " unsupported on this host; " + CpuidBits() + ")";
      } else {
        chosen = parsed.value();
        why = std::string(BackendName(chosen)) +
              " (forced via DISMASTD_KERNEL=" + value + "; " + CpuidBits() +
              ")";
      }
    }
  }
  g_state.table = &TableFor(chosen);
  g_state.why = why;
}

void EnsureDispatchedLocked() {
  if (g_state.table == nullptr) AutoDispatchLocked();
}

}  // namespace

const char* BackendName(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kAvx2:
      return "avx2";
    case Backend::kAvx512:
      return "avx512";
  }
  return "unknown";
}

Result<Backend> ParseBackend(const std::string& text) {
  if (text == "scalar") return Backend::kScalar;
  if (text == "avx2") return Backend::kAvx2;
  if (text == "avx512") return Backend::kAvx512;
  return Status::InvalidArgument("unknown kernel backend '" + text +
                                 "' (expected scalar|avx2|avx512)");
}

const KernelTable& Get() {
  std::lock_guard<std::mutex> lock(g_mu);
  EnsureDispatchedLocked();
  return *g_state.table;
}

const KernelTable& Get(Backend backend) {
  {
    std::lock_guard<std::mutex> lock(g_mu);
    DISMASTD_CHECK(SupportedLocked(backend));
  }
  return TableFor(backend);
}

Backend Dispatched() {
  std::lock_guard<std::mutex> lock(g_mu);
  EnsureDispatchedLocked();
  return g_state.table->backend;
}

Backend BestSupported() {
  std::lock_guard<std::mutex> lock(g_mu);
  return BestSupportedLocked();
}

bool Supported(Backend backend) {
  std::lock_guard<std::mutex> lock(g_mu);
  return SupportedLocked(backend);
}

Status ForceBackend(Backend backend) {
  std::lock_guard<std::mutex> lock(g_mu);
  if (!SupportedLocked(backend)) {
    std::string reason = std::string("kernel backend '") +
                         BackendName(backend) + "' unavailable: ";
    if (!CompiledIn(backend)) {
      reason += "not compiled into this build";
    } else if (backend == Backend::kAvx2) {
      reason += "cpu lacks avx2";
    } else {
      reason += "cpu lacks avx512f+avx512bw+avx512dq+avx512vl";
    }
    return Status::FailedPrecondition(reason);
  }
  g_state.table = &TableFor(backend);
  g_state.why = std::string(BackendName(backend)) + " (forced via --kernel; " +
                CpuidBits() + ")";
  return Status::OK();
}

void ResetDispatch() {
  std::lock_guard<std::mutex> lock(g_mu);
  AutoDispatchLocked();
}

std::string DispatchExplanation() {
  std::lock_guard<std::mutex> lock(g_mu);
  EnsureDispatchedLocked();
  return g_state.why;
}

namespace detail {

double* LaneBuffer(size_t n) {
  thread_local std::vector<double> buffer;
  if (buffer.size() < n) buffer.resize(n);
  return buffer.data();
}

}  // namespace detail

}  // namespace kernels
}  // namespace dismastd
