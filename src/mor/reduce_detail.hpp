// Internal seams of the reduce() facade, shared by mor/reduce.cpp and
// mor/port_shard.cpp. Not part of the public API (sympvl.hpp does not
// include it): callers reach both paths through sympvl::reduce().
#pragma once

#include "mor/reduce.hpp"

namespace sympvl::detail {

/// SyMPVL (Algorithm 1) under reduce()'s status and diagnostics rules,
/// without the driver.result instant (reduce() emits that once per
/// call). The sharded path's 1-shard case delegates here.
ReduceResult reduce_sympvl(const MnaSystem& sys, const SympvlOptions& options);

/// Clustered per-shard SyMPVL with a stitched union model (DESIGN.md
/// §5.8). With 1 shard it is reduce_sympvl verbatim (bit-identical
/// ReducedModel); with K > 1 the model is the stitched ArnoldiModel.
/// Never throws for per-shard failures — they land in diagnostics with
/// status kTruncated; a failed priming factorization or an all-shards
/// failure reports kFailed.
ReduceResult sharded_sympvl_reduce(const MnaSystem& sys,
                                   const SympvlOptions& options);

}  // namespace sympvl::detail
