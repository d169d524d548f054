// Dense per-thread indices.
//
// Per-thread slot arrays (the snapshot registry, the serial gate) want a
// small number that identifies the calling thread, so that each thread
// keeps re-using "its" slot and a scan can stop at the highest index any
// live thread holds. `thread_index()` hands every thread the lowest index
// no live thread holds, on first call, and returns it to the free set when
// the thread exits; indices therefore stay as dense as the peak number of
// concurrently live threads that ever asked for one.
#pragma once

#include <cstddef>

namespace txf::util {

/// The calling thread's dense index (0 for the first thread that asks).
/// Stable for the thread's lifetime; costs one thread-local load after the
/// first call. During the thread's own thread_local teardown it may return
/// a huge value: callers must treat any index past their array as "no
/// preferred slot".
std::size_t thread_index() noexcept;

}  // namespace txf::util
