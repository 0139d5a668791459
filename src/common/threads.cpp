#include "common/threads.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <thread>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace mt {
namespace {

std::atomic<int> g_override{0};  // 0 = no explicit override

int env_or_default() {
  // Read-only env access; nothing in this process calls setenv/putenv, so
  // the libc race concurrency-mt-unsafe guards against cannot occur.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* env = std::getenv("MT_NUM_THREADS")) {
    const int n = std::atoi(env);
    if (n >= 1) return n;
  }
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

}  // namespace

int hardware_threads() {
#ifdef _OPENMP
  return std::max(1, omp_get_num_procs());
#else
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
#endif
}

int num_threads() {
  const int n = g_override.load(std::memory_order_relaxed);
  return n >= 1 ? n : env_or_default();
}

void set_num_threads(int n) {
  g_override.store(n >= 1 ? n : 0, std::memory_order_relaxed);
}

int num_threads_override() {
  return std::max(g_override.load(std::memory_order_relaxed), 0);
}

}  // namespace mt
