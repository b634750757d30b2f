#include "durable/journal.hpp"

#include <bit>

#include "durable/frame.hpp"
#include "util/fnv.hpp"
#include "util/packer.hpp"

namespace fdml {

std::uint64_t task_content_digest(const std::string& newick, int focus_taxon,
                                  const std::array<int, 3>& regraft_taxa,
                                  double screen_lnl) {
  std::uint64_t hash = fnv1a64_u64(
      static_cast<std::uint64_t>(static_cast<std::int64_t>(focus_taxon)),
      fnv1a64(newick));
  for (const int taxon : regraft_taxa) {
    hash = fnv1a64_u64(
        static_cast<std::uint64_t>(static_cast<std::int64_t>(taxon)), hash);
  }
  return fnv1a64_u64(std::bit_cast<std::uint64_t>(screen_lnl), hash);
}

std::uint64_t round_content_key(
    const std::vector<std::uint64_t>& task_digests) {
  std::uint64_t hash = fnv1a64_u64(task_digests.size());
  for (std::uint64_t digest : task_digests) hash = fnv1a64_u64(digest, hash);
  return hash;
}

TaskJournal::TaskJournal(std::string path, Vfs* vfs)
    : path_(std::move(path)), vfs_(vfs) {}

std::uint64_t TaskJournal::index_key(std::uint64_t round_key,
                                     std::uint64_t task_digest) {
  return fnv1a64_u64(task_digest, fnv1a64_u64(round_key));
}

std::size_t TaskJournal::load() {
  entries_.clear();
  index_.clear();
  next_sequence_ = 1;
  Vfs& fs = vfs_or_real(vfs_);
  std::optional<std::vector<std::uint8_t>> bytes;
  try {
    bytes = fs.read_file(path_);
  } catch (const std::exception&) {
    return 0;  // unreadable journal = no replay, never a crash
  }
  if (!bytes.has_value()) return 0;
  std::size_t pos = 0;
  while (pos < bytes->size()) {
    auto frame = decode_frame(bytes->data(), bytes->size(), pos);
    // First bad frame ends the journal: a crash mid-append leaves a torn
    // tail, and everything after it was never durably acknowledged.
    if (!frame.has_value() || frame->kind != kFrameJournalEntry) break;
    try {
      Unpacker unpacker(frame->payload);
      JournalEntry entry;
      entry.round_key = frame->fingerprint;
      entry.task_digest = unpacker.get_u64();
      entry.log_likelihood = unpacker.get_f64();
      entry.newick = unpacker.get_string();
      entry.cpu_seconds = unpacker.get_f64();
      index_[index_key(entry.round_key, entry.task_digest)] = entries_.size();
      entries_.push_back(std::move(entry));
      next_sequence_ = frame->generation + 1;
    } catch (const std::out_of_range&) {
      break;  // payload shorter than the schema expects: treat as torn
    }
  }
  return entries_.size();
}

void TaskJournal::reset() {
  entries_.clear();
  index_.clear();
  next_sequence_ = 1;
  Vfs& fs = vfs_or_real(vfs_);
  fs.remove_file(path_);
}

void TaskJournal::append(const JournalEntry& entry) {
  Packer packer;
  packer.put_u64(entry.task_digest);
  packer.put_f64(entry.log_likelihood);
  packer.put_string(entry.newick);
  packer.put_f64(entry.cpu_seconds);

  DurableFrame frame;
  frame.kind = kFrameJournalEntry;
  frame.fingerprint = entry.round_key;
  frame.generation = next_sequence_;
  frame.payload = packer.take();
  const std::vector<std::uint8_t> bytes = encode_frame(frame);

  Vfs& fs = vfs_or_real(vfs_);
  fs.append_file(path_, bytes.data(), bytes.size());

  ++next_sequence_;
  index_[index_key(entry.round_key, entry.task_digest)] = entries_.size();
  entries_.push_back(entry);
}

const JournalEntry* TaskJournal::find(std::uint64_t round_key,
                                      std::uint64_t task_digest) const {
  const auto it = index_.find(index_key(round_key, task_digest));
  if (it == index_.end()) return nullptr;
  const JournalEntry& entry = entries_[it->second];
  // Guard against an index collision handing back foreign work.
  if (entry.round_key != round_key || entry.task_digest != task_digest) {
    return nullptr;
  }
  return &entry;
}

}  // namespace fdml
