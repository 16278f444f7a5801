// Durable checkpoint segments: the crash-safety storage plane
// (docs/DESIGN.md §15).
//
// The CheckpointStore persists opaque per-shard snapshot blobs through the
// same CRC-framed, torn-tail-tolerant segment discipline as the EventJournal
// (journal.hpp): every append is one framed record
// [u32 magic][u32 crc][u64 key][u64 seq][u32 len][u32 reserved][payload],
// segments rotate at segment_bytes and the oldest whole segments are deleted
// past max_total_bytes.  A crash mid-append leaves a torn tail that load
// simply stops at — the previous complete snapshot of every shard survives
// by construction, because records are only ever appended, and a segment is
// deleted only after every record in it that is still the latest for its
// key was carried forward into the active segment.
//
// The store is content-agnostic (payloads are bytes; the monocle layer owns
// the Checkpoint encoding in monocle/checkpoint.hpp) so the dependency
// arrow stays telemetry <- monocle, matching the journal.  Load resolves
// "latest valid snapshot per key": the record with the highest seq wins,
// and seq is assigned monotonically by the store itself, so readers never
// have to trust writer-provided ordering.
//
// Without a directory the store keeps the latest blob per key in memory —
// the simulation harnesses' mode, where "durability" means surviving the
// Fleet object, not the process.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace monocle::telemetry {

class CheckpointStore {
 public:
  struct Options {
    /// Segment directory; empty = in-memory store (latest blob per key).
    /// Created (one level) if missing.
    std::string dir;
    /// Rotate to a new segment once the active one reaches this size.
    std::size_t segment_bytes = 256 * 1024;
    /// Delete oldest whole segments once the directory exceeds this.  The
    /// latest record of every key is carried forward before its segment is
    /// deleted, so only superseded records are ever lost.  The bound is
    /// soft: the directory cannot shrink below one latest record per key
    /// plus the active segment, and when that live set nears this size
    /// every rotation re-copies it — keep it a few live sets wide.
    std::size_t max_total_bytes = 8 * 1024 * 1024;
  };

  // Two overloads instead of `Options opts = {}` (same GCC 12 NSDMI
  // workaround as EventJournal).
  CheckpointStore() : CheckpointStore(Options{}) {}
  explicit CheckpointStore(Options opts);
  ~CheckpointStore();

  CheckpointStore(const CheckpointStore&) = delete;
  CheckpointStore& operator=(const CheckpointStore&) = delete;

  /// Appends one snapshot blob for `key` (shard id, or a reserved key for
  /// fleet-level state).  Assigns and returns the record's sequence number.
  /// Thread-safe; on-disk appends are flushed per record.
  std::uint64_t append(std::uint64_t key, std::span<const std::uint8_t> payload);

  /// The latest valid snapshot per key, scanning every segment oldest-first
  /// (highest seq wins).  Thread-safe.
  [[nodiscard]] std::map<std::uint64_t, std::vector<std::uint8_t>> load_latest()
      const;

  /// The latest valid snapshot for one key; nullopt when none survives.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> load(
      std::uint64_t key) const;

  /// Records appended through THIS instance.
  [[nodiscard]] std::uint64_t appended() const;
  /// Valid records found on disk at construction (disk mode).
  [[nodiscard]] std::uint64_t recovered() const { return recovered_; }
  /// Trailing bytes discarded by crash recovery at construction.
  [[nodiscard]] std::uint64_t truncated_bytes() const {
    return truncated_bytes_;
  }
  /// Whole segments deleted by the disk bound so far.
  [[nodiscard]] std::uint64_t segments_deleted() const;
  /// Latest-per-key records re-appended ahead of a segment deletion.
  [[nodiscard]] std::uint64_t records_carried() const;
  /// Current segment files, oldest first (empty in memory mode).
  [[nodiscard]] std::vector<std::string> segment_files() const;
  /// Total bytes across current segment files (0 in memory mode).
  [[nodiscard]] std::size_t disk_bytes() const;

  [[nodiscard]] const Options& options() const { return opts_; }

  /// On-disk frame header, defined in the .cpp (public so file-local frame
  /// helpers there can name it).
  struct FrameHeader;

 private:

  void open_next_segment_locked();
  void enforce_disk_bound_locked();
  /// Appends one framed record to the active segment; false on a short
  /// write.
  bool write_frame_locked(std::uint64_t key, std::uint64_t seq,
                          std::span<const std::uint8_t> payload);
  void recover_locked();
  /// Scans `path`, forwarding each valid (key, seq, payload) to `fn`.
  /// Returns the byte offset just past the last valid record.
  std::size_t scan_segment(
      const std::string& path,
      const std::function<void(std::uint64_t key, std::uint64_t seq,
                               std::vector<std::uint8_t>&& payload)>& fn) const;
  [[nodiscard]] std::string segment_path(std::uint64_t index) const;
  [[nodiscard]] std::vector<std::uint64_t> segment_indices_locked() const;

  Options opts_;
  mutable std::mutex mu_;
  // Disk mode.
  std::FILE* active_ = nullptr;
  std::uint64_t active_index_ = 0;
  std::size_t active_bytes_ = 0;
  std::uint64_t appended_ = 0;
  std::uint64_t recovered_ = 0;
  std::uint64_t truncated_bytes_ = 0;
  std::uint64_t segments_deleted_ = 0;
  std::uint64_t carried_ = 0;
  std::uint64_t next_seq_ = 1;
  /// Disk mode: seq of the latest record written per key (what a segment
  /// deletion must carry forward).
  std::map<std::uint64_t, std::uint64_t> latest_seq_;
  // Memory mode: latest (seq, blob) per key.
  std::map<std::uint64_t, std::pair<std::uint64_t, std::vector<std::uint8_t>>>
      memory_;
};

}  // namespace monocle::telemetry
