// Rendering and diffing for the per-level time-attribution profile
// (`bernoulli.profile.v1`, produced by support/profile.hpp and embedded in
// run reports as `profile_registry`).
//
// Everything here works on the PARSED JSON block, not the live registry, so
// the same code renders a fresh run and a report file — and
// `bernoulli_report profile` cannot drift from what the report embeds.
// Consumers: `analysis/report.cpp` (report_text) and the
// `bernoulli_report profile` subcommand.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "support/json_reader.hpp"

namespace bernoulli::analysis {

/// True when the block is a non-empty `bernoulli.profile.v1` object (a run
/// that never enabled profiling embeds "{}").
bool profile_block_nonempty(const support::JsonValue& profile);

/// Per-level table: self ns, % of the profiled wall, exact work, ns/work,
/// and the drain-kind mix, followed by the distributed-path phases when
/// present. Empty string for an empty block.
std::string profile_table_text(const support::JsonValue& profile);

/// Flattened metric names over one profile block:
///   profile.level<d>.self_ns          per-level estimated self time
///   profile.level<d>.<kind>.self_ns   per-kind split
///   profile.phase.<phase>.ns          distributed-path phases
/// The vocabulary profile_diff_text ranks movements in.
std::vector<std::pair<std::string, double>> profile_flat_metrics(
    const support::JsonValue& profile);

/// Top-N absolute deltas between two profile blocks (`next - base`) over
/// the flattened names, largest first — the "where did the time move"
/// answer. Empty string when either block is empty or nothing moved.
std::string profile_diff_text(const support::JsonValue& base,
                              const support::JsonValue& next,
                              std::size_t top_n);

}  // namespace bernoulli::analysis
