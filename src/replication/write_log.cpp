#include "replication/write_log.hpp"

#include <algorithm>
#include <tuple>

#include "common/assert.hpp"

namespace fastcons {
namespace {

/// First segment with origin >= `origin` in the origin-sorted segments.
template <typename Segments>
auto segment_lower_bound(Segments& segments, NodeId origin) {
  return std::lower_bound(
      segments.begin(), segments.end(), origin,
      [](const auto& segment, NodeId key) { return segment.first < key; });
}

/// First update with seq >= `seq` in one origin's seq-sorted segment.
template <typename Updates>
auto seq_lower_bound(Updates& updates, SeqNo seq) {
  return std::lower_bound(
      updates.begin(), updates.end(), seq,
      [](const Update& u, SeqNo key) { return u.id.seq < key; });
}

}  // namespace

bool WriteLog::apply(const Update& update) {
  return apply_moved(Update(update)) != nullptr;
}

const Update* WriteLog::apply_moved(Update&& update) {
  FASTCONS_EXPECTS(update.id.seq > 0);
  if (summary_.contains(update.id)) return nullptr;
  summary_.add(update.id);
  auto seg = segment_lower_bound(segments_, update.id.origin);
  if (seg == segments_.end() || seg->first != update.id.origin) {
    seg = segments_.emplace(seg, update.id.origin, std::vector<Update>{});
  }
  std::vector<Update>& updates = seg->second;
  const Update* stored = nullptr;
  if (updates.empty() || updates.back().id.seq < update.id.seq) {
    stored = &updates.emplace_back(std::move(update));
  } else {
    stored = &*updates.insert(seq_lower_bound(updates, update.id.seq),
                              std::move(update));
  }
  ++size_;
  // Last-writer-wins on (created_at, origin, seq).
  const auto kv_pos = kv_.lower_bound(stored->key);
  if (kv_pos == kv_.end() || kv_pos->first != stored->key) {
    kv_.emplace_hint(kv_pos, stored->key,
                     KeyState{stored->created_at, stored->id, stored->value});
  } else {
    KeyState& state = kv_pos->second;
    const auto candidate =
        std::tuple(stored->created_at, stored->id.origin, stored->id.seq);
    const auto incumbent =
        std::tuple(state.written_at, state.by.origin, state.by.seq);
    if (candidate > incumbent) {
      state.written_at = stored->created_at;
      state.by = stored->id;
      state.value = stored->value;
    }
  }
  return stored;
}

bool WriteLog::contains(UpdateId id) const { return summary_.contains(id); }

std::optional<Update> WriteLog::get(UpdateId id) const {
  const Update* found = find(id);
  if (found == nullptr) return std::nullopt;
  return *found;
}

const Update* WriteLog::find(UpdateId id) const {
  const auto seg = segment_lower_bound(segments_, id.origin);
  if (seg == segments_.end() || seg->first != id.origin) return nullptr;
  const auto it = seq_lower_bound(seg->second, id.seq);
  if (it == seg->second.end() || it->id.seq != id.seq) return nullptr;
  return &*it;
}

std::vector<Update> WriteLog::updates_for(
    const SummaryVector& their_summary,
    std::vector<UpdateId>* missing_truncated) const {
  const std::vector<UpdateId> ids = summary_.missing_from(their_summary);
  std::vector<Update> result;
  result.reserve(ids.size());
  for (const UpdateId id : ids) {
    if (const Update* found = find(id)) {
      result.push_back(*found);
    } else if (missing_truncated != nullptr) {
      missing_truncated->push_back(id);
    }
  }
  return result;
}

std::optional<std::string> WriteLog::read(const std::string& key) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return std::nullopt;
  return it->second.value;
}

std::vector<std::string> WriteLog::keys() const {
  std::vector<std::string> result;
  result.reserve(kv_.size());
  for (const auto& [key, state] : kv_) {
    (void)state;
    result.push_back(key);
  }
  return result;
}

std::size_t WriteLog::truncate_below(const SummaryVector& stable) {
  std::size_t discarded = 0;
  for (auto& [origin, updates] : segments_) {
    (void)origin;
    discarded += std::erase_if(
        updates, [&](const Update& u) { return stable.contains(u.id); });
  }
  size_ -= discarded;
  return discarded;
}

std::vector<Update> WriteLog::all_retained() const {
  std::vector<Update> result;
  result.reserve(size_);
  for (const auto& [origin, updates] : segments_) {
    (void)origin;
    result.insert(result.end(), updates.begin(), updates.end());
  }
  return result;
}

void WriteLog::restore(std::vector<Update> updates, const SummaryVector& cover) {
  for (Update& update : updates) {
    apply_moved(std::move(update));
  }
  summary_.merge(cover);
}

std::uint64_t WriteLog::kv_digest() const noexcept {
  // FNV-1a over (key, 0, value, 0) in key order. kv_ is sorted by key, so
  // the digest depends only on the materialised state, not insertion order.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<std::uint8_t>(c);
      h *= 1099511628211ull;
    }
    h *= 1099511628211ull;  // NUL separator step
  };
  for (const auto& [key, state] : kv_) {
    mix(key);
    mix(state.value);
  }
  return h;
}

}  // namespace fastcons
