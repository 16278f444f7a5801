#include "telemetry/checkpoint_store.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>

#include "telemetry/journal.hpp"  // crc32

namespace monocle::telemetry {

namespace fs = std::filesystem;

namespace {

constexpr std::uint32_t kFrameMagic = 0x504B434Du;  // "MCKP"
constexpr char kSegmentPrefix[] = "checkpoint-";
constexpr char kSegmentSuffix[] = ".seg";

}  // namespace

// The CRC covers key, seq, len, reserved AND the payload bytes, so neither a
// torn header nor a torn payload can pass validation (the every-byte-offset
// truncation test cuts through both).
struct CheckpointStore::FrameHeader {
  std::uint32_t magic = kFrameMagic;
  std::uint32_t crc = 0;
  std::uint64_t key = 0;
  std::uint64_t seq = 0;
  std::uint32_t len = 0;
  std::uint32_t reserved = 0;
};
static_assert(sizeof(CheckpointStore::FrameHeader) == 32);

namespace {

std::uint32_t frame_crc(const CheckpointStore::FrameHeader& hdr,
                        std::span<const std::uint8_t> payload) {
  // Streamed over header-fields-past-the-crc-word then payload: no
  // concatenation buffer, so the per-round checkpoint append allocates
  // nothing (the fig15 steady-cycle alloc gate runs with checkpointing on).
  struct Covered {
    std::uint64_t key;
    std::uint64_t seq;
    std::uint32_t len;
    std::uint32_t reserved;
  } covered{hdr.key, hdr.seq, hdr.len, hdr.reserved};
  std::uint32_t state = crc32_seed();
  state = crc32_update(state, &covered, sizeof(covered));
  state = crc32_update(state, payload.data(), payload.size());
  return crc32_finish(state);
}

}  // namespace

CheckpointStore::CheckpointStore(Options opts) : opts_(std::move(opts)) {
  if (opts_.dir.empty()) return;
  std::error_code ec;
  fs::create_directories(opts_.dir, ec);
  std::lock_guard lock(mu_);
  recover_locked();
}

CheckpointStore::~CheckpointStore() {
  std::lock_guard lock(mu_);
  if (active_ != nullptr) {
    std::fclose(active_);
    active_ = nullptr;
  }
}

std::string CheckpointStore::segment_path(std::uint64_t index) const {
  char name[64];
  std::snprintf(name, sizeof(name), "%s%08llu%s", kSegmentPrefix,
                static_cast<unsigned long long>(index), kSegmentSuffix);
  return (fs::path(opts_.dir) / name).string();
}

std::vector<std::uint64_t> CheckpointStore::segment_indices_locked() const {
  std::vector<std::uint64_t> indices;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(opts_.dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(kSegmentPrefix, 0) != 0) continue;
    if (name.size() <=
        std::strlen(kSegmentPrefix) + std::strlen(kSegmentSuffix)) {
      continue;
    }
    const std::string digits =
        name.substr(std::strlen(kSegmentPrefix),
                    name.size() - std::strlen(kSegmentPrefix) -
                        std::strlen(kSegmentSuffix));
    indices.push_back(std::strtoull(digits.c_str(), nullptr, 10));
  }
  std::sort(indices.begin(), indices.end());
  return indices;
}

std::size_t CheckpointStore::scan_segment(
    const std::string& path,
    const std::function<void(std::uint64_t, std::uint64_t,
                             std::vector<std::uint8_t>&&)>& fn) const {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;
  std::size_t valid_end = 0;
  FrameHeader hdr;
  std::vector<std::uint8_t> payload;
  while (std::fread(&hdr, sizeof(hdr), 1, f) == 1) {
    if (hdr.magic != kFrameMagic) break;
    // A frame can never be larger than a whole segment; an absurd length is
    // corruption, not a record to allocate for.
    if (hdr.len > opts_.segment_bytes + sizeof(FrameHeader)) break;
    payload.resize(hdr.len);
    if (hdr.len > 0 && std::fread(payload.data(), 1, hdr.len, f) != hdr.len) {
      break;  // torn payload
    }
    if (frame_crc(hdr, payload) != hdr.crc) break;
    valid_end += sizeof(hdr) + hdr.len;
    if (fn) fn(hdr.key, hdr.seq, std::move(payload));
    payload.clear();
  }
  std::fclose(f);
  return valid_end;
}

void CheckpointStore::recover_locked() {
  const std::vector<std::uint64_t> indices = segment_indices_locked();
  std::uint64_t recovered = 0;
  std::uint64_t max_seq = 0;
  const auto count = [&](std::uint64_t key, std::uint64_t seq,
                         std::vector<std::uint8_t>&&) {
    ++recovered;
    max_seq = std::max(max_seq, seq);
    std::uint64_t& latest = latest_seq_[key];
    latest = std::max(latest, seq);
  };
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const std::string path = segment_path(indices[i]);
    const std::size_t valid_end = scan_segment(path, count);
    std::error_code ec;
    const auto actual = static_cast<std::size_t>(fs::file_size(path, ec));
    if (actual > valid_end) {
      // Torn/corrupt tail (crash mid-append): truncate back to the last
      // valid record; the prefix stays readable and appending resumes there
      // when this is the final segment.
      truncated_bytes_ += actual - valid_end;
      fs::resize_file(path, valid_end, ec);
    }
    if (i + 1 == indices.size()) {
      active_index_ = indices[i];
      active_ = std::fopen(path.c_str(), "ab");
      active_bytes_ = valid_end;
    }
  }
  recovered_ = recovered;
  next_seq_ = max_seq + 1;
  if (active_ == nullptr) {
    active_index_ = indices.empty() ? 1 : indices.back() + 1;
    open_next_segment_locked();
  }
}

void CheckpointStore::open_next_segment_locked() {
  if (active_ != nullptr) {
    std::fclose(active_);
    ++active_index_;
  }
  active_ = std::fopen(segment_path(active_index_).c_str(), "ab");
  active_bytes_ = 0;
  enforce_disk_bound_locked();
}

void CheckpointStore::enforce_disk_bound_locked() {
  std::vector<std::uint64_t> indices = segment_indices_locked();
  std::size_t total = 0;
  std::error_code ec;
  for (const std::uint64_t index : indices) {
    total += static_cast<std::size_t>(fs::file_size(segment_path(index), ec));
  }
  for (const std::uint64_t index : indices) {
    if (total <= opts_.max_total_bytes) break;
    if (index == active_index_) break;  // never the active segment
    const std::string path = segment_path(index);
    const auto size = static_cast<std::size_t>(fs::file_size(path, ec));
    // Carry forward: a record that is still the latest for its key is
    // re-appended (same key, seq and payload) to the active segment before
    // its segment goes, so the latest snapshot of every key survives any
    // number of rotations.  A crash in between leaves two identical
    // copies, never none.
    const std::size_t before = active_bytes_;
    bool carried_all = true;
    scan_segment(path, [&](std::uint64_t key, std::uint64_t seq,
                           std::vector<std::uint8_t>&& payload) {
      const auto it = latest_seq_.find(key);
      if (it == latest_seq_.end() || it->second != seq) return;
      if (write_frame_locked(key, seq, payload)) {
        ++carried_;
      } else {
        carried_all = false;
      }
    });
    if (!carried_all) break;  // keep the segment rather than lose a latest
    fs::remove(path, ec);
    total = total - size + (active_bytes_ - before);
    ++segments_deleted_;
  }
}

bool CheckpointStore::write_frame_locked(
    std::uint64_t key, std::uint64_t seq,
    std::span<const std::uint8_t> payload) {
  if (active_ == nullptr) return false;
  FrameHeader hdr;
  hdr.key = key;
  hdr.seq = seq;
  hdr.len = static_cast<std::uint32_t>(payload.size());
  hdr.crc = frame_crc(hdr, payload);
  if (std::fwrite(&hdr, sizeof(hdr), 1, active_) != 1) return false;
  if (!payload.empty() &&
      std::fwrite(payload.data(), 1, payload.size(), active_) !=
          payload.size()) {
    return false;
  }
  active_bytes_ += sizeof(hdr) + payload.size();
  std::fflush(active_);
  return true;
}

std::uint64_t CheckpointStore::append(std::uint64_t key,
                                      std::span<const std::uint8_t> payload) {
  std::lock_guard lock(mu_);
  const std::uint64_t seq = next_seq_++;
  ++appended_;
  if (opts_.dir.empty()) {
    auto& slot = memory_[key];
    slot.first = seq;
    slot.second.assign(payload.begin(), payload.end());
    return seq;
  }
  if (active_ == nullptr) return seq;  // directory unusable: drop silently
  if (active_bytes_ >= opts_.segment_bytes) open_next_segment_locked();
  if (write_frame_locked(key, seq, payload)) latest_seq_[key] = seq;
  return seq;
}

std::map<std::uint64_t, std::vector<std::uint8_t>>
CheckpointStore::load_latest() const {
  std::lock_guard lock(mu_);
  std::map<std::uint64_t, std::vector<std::uint8_t>> out;
  if (opts_.dir.empty()) {
    for (const auto& [key, slot] : memory_) out[key] = slot.second;
    return out;
  }
  if (active_ != nullptr) std::fflush(active_);
  std::map<std::uint64_t, std::uint64_t> best_seq;
  for (const std::uint64_t index : segment_indices_locked()) {
    scan_segment(segment_path(index),
                 [&](std::uint64_t key, std::uint64_t seq,
                     std::vector<std::uint8_t>&& payload) {
                   const auto it = best_seq.find(key);
                   if (it != best_seq.end() && it->second > seq) return;
                   best_seq[key] = seq;
                   out[key] = std::move(payload);
                 });
  }
  return out;
}

std::optional<std::vector<std::uint8_t>> CheckpointStore::load(
    std::uint64_t key) const {
  auto all = load_latest();
  const auto it = all.find(key);
  if (it == all.end()) return std::nullopt;
  return std::move(it->second);
}

std::uint64_t CheckpointStore::appended() const {
  std::lock_guard lock(mu_);
  return appended_;
}

std::uint64_t CheckpointStore::segments_deleted() const {
  std::lock_guard lock(mu_);
  return segments_deleted_;
}

std::uint64_t CheckpointStore::records_carried() const {
  std::lock_guard lock(mu_);
  return carried_;
}

std::vector<std::string> CheckpointStore::segment_files() const {
  std::lock_guard lock(mu_);
  if (opts_.dir.empty()) return {};
  std::vector<std::string> out;
  for (const std::uint64_t index : segment_indices_locked()) {
    out.push_back(segment_path(index));
  }
  return out;
}

std::size_t CheckpointStore::disk_bytes() const {
  std::lock_guard lock(mu_);
  if (opts_.dir.empty()) return 0;
  std::size_t total = 0;
  std::error_code ec;
  for (const std::uint64_t index : segment_indices_locked()) {
    total += static_cast<std::size_t>(fs::file_size(segment_path(index), ec));
  }
  return total;
}

}  // namespace monocle::telemetry
