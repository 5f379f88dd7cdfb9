// Copyright 2026 The rvar Authors.
//
// Deterministic data parallelism (DESIGN.md §8). A lazily-started fixed
// thread pool executes work in *chunks* whose boundaries depend only on the
// problem size and the caller's grain — never on the thread count — and
// ParallelReduce merges per-chunk accumulators in chunk-index order. A
// computation expressed through these primitives therefore produces
// bit-identical results (including floating-point rounding) whether it runs
// on 1 thread, 8 threads, or inline, which is what keeps the library's
// seed-reproducibility guarantee (DESIGN.md §5) intact on the parallel hot
// paths.
//
// Thread count resolution: SetParallelThreads(n) wins; otherwise the
// RVAR_THREADS environment variable (read once); otherwise
// std::thread::hardware_concurrency(). A count of 1 (or a nested parallel
// region) runs the same chunked computation inline on the calling thread.

#ifndef RVAR_COMMON_PARALLEL_H_
#define RVAR_COMMON_PARALLEL_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

namespace rvar {

/// Number of worker threads parallel regions may use (>= 1).
int ParallelThreads();

/// Overrides the worker count; n <= 0 restores the default (RVAR_THREADS
/// env or hardware concurrency). Joins idle pool workers and restarts the
/// pool lazily at the new width. Must not be called from inside a parallel
/// region. Chunk boundaries do not depend on this value, so changing it
/// never changes results — only wall-clock.
void SetParallelThreads(int n);

namespace internal {

/// Deterministic chunk boundaries: ceil(n / grain) half-open ranges of at
/// most `grain` indices each, in index order. Depends only on (n, grain).
std::vector<std::pair<size_t, size_t>> ChunkRanges(size_t n, size_t grain);

/// Runs body(chunk_index) for every chunk in [0, num_chunks), distributing
/// chunks over the pool. Chunks may execute in any order and concurrently;
/// callers must make per-chunk work independent. Runs inline (in ascending
/// chunk order) when the pool has 1 thread, num_chunks <= 1, or the caller
/// is itself a pool worker (nested regions never deadlock).
void RunChunks(size_t num_chunks, const std::function<void(size_t)>& body);

}  // namespace internal

/// Grain for `n` items of equal cost that together cost `total_work`
/// units: one chunk, run inline, while the total is below
/// `min_chunk_work`; otherwise chunks of at least that much work each.
/// A pooled chunk pays a wake-up and a claim under the pool mutex, so a
/// chunk must carry well more work than that (DESIGN.md §8). Depends
/// only on its arguments, never on the thread count.
inline size_t GrainForWork(size_t n, size_t total_work,
                           size_t min_chunk_work) {
  const size_t chunks = std::min(n, total_work / min_chunk_work);
  return chunks <= 1 ? n : (n + chunks - 1) / chunks;
}

/// Runs body(begin, end) over deterministic chunks covering [0, n). Each
/// index is visited exactly once; chunks may run concurrently, so bodies
/// must only touch disjoint state (e.g. output slot i for index i).
/// `grain` is the maximum chunk size; pick it for work granularity, not
/// for the machine — boundaries must stay machine-independent.
inline void ParallelFor(size_t n, size_t grain,
                        const std::function<void(size_t, size_t)>& body) {
  const auto ranges = internal::ChunkRanges(n, grain);
  internal::RunChunks(ranges.size(), [&](size_t c) {
    body(ranges[c].first, ranges[c].second);
  });
}

/// Deterministic ordered reduction over [0, n): `chunk(begin, end)` returns
/// a per-chunk accumulator of type T (default-constructed slots are
/// overwritten), and `merge(acc, part)` folds the chunk results together
/// strictly in chunk-index order starting from `identity`. Because both the
/// chunk boundaries and the merge order are fixed, the result — including
/// floating-point rounding — is independent of the thread count.
template <typename T, typename ChunkFn, typename MergeFn>
T ParallelReduce(size_t n, size_t grain, T identity, ChunkFn&& chunk,
                 MergeFn&& merge) {
  const auto ranges = internal::ChunkRanges(n, grain);
  if (ranges.empty()) return identity;
  std::vector<T> partial(ranges.size());
  internal::RunChunks(ranges.size(), [&](size_t c) {
    partial[c] = chunk(ranges[c].first, ranges[c].second);
  });
  T acc = std::move(identity);
  for (T& part : partial) acc = merge(std::move(acc), std::move(part));
  return acc;
}

}  // namespace rvar

#endif  // RVAR_COMMON_PARALLEL_H_
