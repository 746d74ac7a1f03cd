#pragma once
// Segment compaction and garbage collection for the persistent tier.
//
// An append-only directory accumulates one segment per process run plus
// whatever anti-entropy `cache pull` replicated in; over months that means many
// files, duplicate keys (the same design point computed by different
// runs), CRC-damaged records, and -- after a solver-stack bump --
// whole segments with a stale version tag. Compaction merges a set of
// segments into one, keeping exactly one record per distinct key:
//
//   - inputs are processed in sorted-name order and records in file
//     order, and the FIRST occurrence of a key wins -- the same replay
//     order PersistentCache::load uses, so a compacted directory seeds
//     byte-for-byte the same values as the original;
//   - records the loader would skip (bad CRC, undecodable payload) are
//     dropped, not copied;
//   - in GC mode, records with an unregistered codec tag and whole
//     segments with a mismatched header are dropped too (a stale
//     generation can never be replayed, so its bytes are pure waste).
//
// Crash safety: the merged segment is written to `<name>.tmp`, flushed,
// renamed into place, and only then are the inputs deleted. A crash in
// between leaves duplicates, which the loader's and the next
// compaction's first-wins rule both tolerate. The output name sorts
// BEFORE the `segment-*` actives ("compact-" < "segment-"), preserving
// oldest-first replay priority for the merged records.

#include <cstdint>
#include <string>
#include <vector>

namespace upa::cache {

struct CompactionOptions {
  /// GC mode: additionally drop records whose codec tag is unknown and
  /// DELETE input segments whose header (magic/version/tag) mismatches.
  bool gc = false;
  /// Keep input files after the merge (inspection / dry runs).
  bool keep_inputs = false;
};

struct CompactionStats {
  bool performed = false;  ///< false when there was nothing to merge
  std::size_t segments_in = 0;
  std::size_t segments_rejected = 0;  ///< header mismatch (GC deletes)
  std::size_t segments_removed = 0;   ///< input files deleted
  std::uint64_t records_in = 0;       ///< records read from inputs
  std::uint64_t records_kept = 0;
  std::uint64_t records_dropped_duplicate = 0;
  std::uint64_t records_dropped_crc = 0;
  std::uint64_t records_dropped_unknown_tag = 0;  ///< GC only
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::string output_path;  ///< empty when !performed

  [[nodiscard]] std::uint64_t records_dropped() const noexcept {
    return records_dropped_duplicate + records_dropped_crc +
           records_dropped_unknown_tag;
  }
};

/// Merges `segment_paths` (already sorted in replay order) into one
/// segment at `output_path` (+ its `.upaidx`), then deletes the inputs
/// and their index sidecars unless options.keep_inputs. Throws
/// ModelError when the output cannot be written.
CompactionStats compact_segments(const std::vector<std::string>& segment_paths,
                                 const std::string& output_path,
                                 const CompactionOptions& options = {});

/// Compacts every `*.upaseg` in `directory` into a fresh
/// `compact-NNNNNN.upaseg` (numbered past any existing compact file).
/// Segments named `segment-p*` belonging to live processes are still
/// merged -- call sites that must spare an active file (the online
/// maintenance pass) use compact_segments with an explicit list.
CompactionStats compact_directory(const std::string& directory,
                                  const CompactionOptions& options = {});

/// The next free `compact-NNNNNN.upaseg` path in `directory`.
[[nodiscard]] std::string next_compact_path(const std::string& directory);

}  // namespace upa::cache
