// Thread-count knob for the OpenMP kernel paths.
//
// Resolution order: set_num_threads() (process-wide), then the
// MT_NUM_THREADS environment variable, then the OpenMP runtime default
// (1 when built without OpenMP). Always >= 1; 1 runs the kernels
// serially so results are reproducible run-to-run.
//
// Interplay with the serving runtime's worker pool (src/runtime): each
// worker thread that calls a kernel opens its own OpenMP team, so the
// process runs up to pool_size x num_threads() compute threads at once.
// The runtime's ThreadCapRegistry (runtime/server.cpp) therefore caps the
// width through set_num_threads() while any multi-worker server is live —
// hardware_threads() / (total live workers), at least one thread each —
// and restores the saved override when the last one stops. The cap is
// process-wide: kernels invoked directly while a capped pool is running
// share the capped width.
//
// Thread-safety: all state here is a single relaxed atomic (threads.cpp);
// there are no mutexes, so there is nothing for the clang thread safety
// annotations (common/thread_annotations.hpp) to guard in this module.
#pragma once

namespace mt {

// Thread count the kernels will use for their next parallel region.
int num_threads();

// Override the thread count for this process; n < 1 clears the override
// and falls back to MT_NUM_THREADS / the OpenMP default.
void set_num_threads(int n);

// The raw override value (0 = no override set). Lets a scoped owner —
// the serving runtime's worker pool — save the knob and restore it
// exactly, including the "no override" state.
int num_threads_override();

// Hardware parallelism available to this process (always >= 1).
int hardware_threads();

}  // namespace mt
