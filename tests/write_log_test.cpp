#include "replication/write_log.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>

#include "common/rng.hpp"

namespace fastcons {
namespace {

Update make_update(NodeId origin, SeqNo seq, SimTime at = 0.0,
                   std::string key = "k", std::string value = "v") {
  return Update{UpdateId{origin, seq}, at, std::move(key), std::move(value)};
}

TEST(WriteLogTest, ApplyIsIdempotent) {
  WriteLog log;
  EXPECT_TRUE(log.apply(make_update(0, 1)));
  EXPECT_FALSE(log.apply(make_update(0, 1)));
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.applied_total(), 1u);
}

TEST(WriteLogTest, ContainsAndGet) {
  WriteLog log;
  const Update u = make_update(2, 1, 1.5, "city", "barcelona");
  log.apply(u);
  EXPECT_TRUE(log.contains(u.id));
  EXPECT_FALSE(log.contains(UpdateId{2, 2}));
  const auto got = log.get(u.id);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, u);
  EXPECT_FALSE(log.get(UpdateId{9, 9}).has_value());
}

TEST(WriteLogTest, UpdatesForReturnsDifferenceInOrder) {
  WriteLog log;
  log.apply(make_update(0, 1));
  log.apply(make_update(0, 2));
  log.apply(make_update(1, 1));
  SummaryVector theirs;
  theirs.add(UpdateId{0, 1});
  const auto missing = log.updates_for(theirs);
  ASSERT_EQ(missing.size(), 2u);
  EXPECT_EQ(missing[0].id, (UpdateId{0, 2}));
  EXPECT_EQ(missing[1].id, (UpdateId{1, 1}));
}

TEST(WriteLogTest, UpdatesForSelfSummaryIsEmpty) {
  WriteLog log;
  log.apply(make_update(0, 1));
  log.apply(make_update(3, 4));
  EXPECT_TRUE(log.updates_for(log.summary()).empty());
}

TEST(WriteLogTest, LastWriterWinsByTimestamp) {
  WriteLog log;
  log.apply(make_update(0, 1, 1.0, "x", "old"));
  log.apply(make_update(1, 1, 2.0, "x", "new"));
  EXPECT_EQ(log.read("x"), "new");
  // A late-arriving older write must not clobber the newer value.
  log.apply(make_update(2, 1, 0.5, "x", "ancient"));
  EXPECT_EQ(*log.read("x"), "new");
}

TEST(WriteLogTest, TimestampTiesBreakDeterministically) {
  // Same created_at: the higher (origin, seq) wins, in both arrival orders.
  WriteLog a, b;
  const Update u1 = make_update(1, 1, 5.0, "x", "from-1");
  const Update u2 = make_update(2, 1, 5.0, "x", "from-2");
  a.apply(u1);
  a.apply(u2);
  b.apply(u2);
  b.apply(u1);
  ASSERT_TRUE(a.read("x").has_value());
  EXPECT_EQ(*a.read("x"), *b.read("x"));
  EXPECT_EQ(*a.read("x"), "from-2");
}

TEST(WriteLogTest, ReadMissingKey) {
  WriteLog log;
  EXPECT_FALSE(log.read("nope").has_value());
}

TEST(WriteLogTest, KeysListsMaterialisedKeys) {
  WriteLog log;
  log.apply(make_update(0, 1, 0.0, "a", "1"));
  log.apply(make_update(0, 2, 1.0, "b", "2"));
  log.apply(make_update(0, 3, 2.0, "a", "3"));
  const auto keys = log.keys();
  EXPECT_EQ(keys.size(), 2u);
}

TEST(WriteLogTest, AllRetainedSortedById) {
  WriteLog log;
  log.apply(make_update(1, 2));
  log.apply(make_update(0, 1));
  log.apply(make_update(1, 1));
  const auto all = log.all_retained();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].id, (UpdateId{0, 1}));
  EXPECT_EQ(all[1].id, (UpdateId{1, 1}));
  EXPECT_EQ(all[2].id, (UpdateId{1, 2}));
}

TEST(WriteLogTest, TruncationDiscardsPayloadsButKeepsSummary) {
  WriteLog log;
  log.apply(make_update(0, 1));
  log.apply(make_update(0, 2));
  log.apply(make_update(0, 3));
  SummaryVector stable;
  stable.add(UpdateId{0, 1});
  stable.add(UpdateId{0, 2});
  EXPECT_EQ(log.truncate_below(stable), 2u);
  EXPECT_EQ(log.size(), 1u);
  // Summary still covers the truncated ids: re-applying stays a no-op.
  EXPECT_TRUE(log.contains(UpdateId{0, 1}));
  EXPECT_FALSE(log.apply(make_update(0, 1)));
  EXPECT_FALSE(log.get(UpdateId{0, 1}).has_value());
}

TEST(WriteLogTest, UpdatesForReportsTruncatedIds) {
  WriteLog log;
  log.apply(make_update(0, 1));
  log.apply(make_update(0, 2));
  SummaryVector stable;
  stable.add(UpdateId{0, 1});
  log.truncate_below(stable);
  const SummaryVector empty;
  std::vector<UpdateId> truncated;
  const auto sendable = log.updates_for(empty, &truncated);
  ASSERT_EQ(sendable.size(), 1u);
  EXPECT_EQ(sendable[0].id, (UpdateId{0, 2}));
  ASSERT_EQ(truncated.size(), 1u);
  EXPECT_EQ(truncated[0], (UpdateId{0, 1}));
}

TEST(WriteLogTest, PairwiseExchangeConverges) {
  // The algebra behind an anti-entropy session: exchanging summary
  // differences makes two random logs identical.
  Rng rng(99);
  for (int round = 0; round < 20; ++round) {
    WriteLog a, b;
    for (int i = 0; i < 40; ++i) {
      const auto origin = static_cast<NodeId>(rng.index(3));
      const auto seq = rng.uniform_u64(1, 10);
      const auto u = make_update(origin, seq, rng.uniform(0.0, 5.0));
      if (rng.bernoulli(0.5)) a.apply(u);
      if (rng.bernoulli(0.5)) b.apply(u);
    }
    for (const Update& u : a.updates_for(b.summary())) b.apply(u);
    for (const Update& u : b.updates_for(a.summary())) a.apply(u);
    EXPECT_EQ(a.summary(), b.summary());
    EXPECT_EQ(a.all_retained().size(), b.all_retained().size());
  }
}

// ---------------------------------------------------------------------------
// Reference model: a naive id-keyed map plus last-writer-wins over every
// update ever applied. The log is checked against it after every step, for
// seeded arrival orders over 3-5 origins.

struct LogModel {
  std::map<UpdateId, Update> retained;
  std::map<UpdateId, Update> applied;  // ever applied, truncated included

  bool apply(const Update& u) {
    if (!applied.emplace(u.id, u).second) return false;
    retained.emplace(u.id, u);
    return true;
  }

  /// Last-writer-wins on (created_at, origin, seq) over every applied
  /// update: truncation drops payloads, never materialised values.
  std::map<std::string, std::string> kv() const {
    std::map<std::string, const Update*> winner;
    for (const auto& [id, u] : applied) {
      const Update*& w = winner[u.key];
      if (w == nullptr || std::tuple(u.created_at, u.id) >
                              std::tuple(w->created_at, w->id)) {
        w = &u;
      }
    }
    std::map<std::string, std::string> result;
    for (const auto& [key, u] : winner) result.emplace(key, u->value);
    return result;
  }
};

/// Every (origin, seq) for `origins` origins and seqs 1..`depth`, keyed
/// from a small pool so last-writer-wins decides, with coarse timestamps
/// so (origin, seq) tie-breaks decide too.
std::vector<Update> make_universe(Rng& rng, NodeId origins, SeqNo depth) {
  std::vector<Update> universe;
  for (NodeId o = 0; o < origins; ++o) {
    for (SeqNo s = 1; s <= depth; ++s) {
      universe.push_back(make_update(
          o * 3 + 1, s, static_cast<SimTime>(rng.index(6)),
          "k" + std::to_string(rng.index(7)),
          "v" + std::to_string(o) + "." + std::to_string(s)));
    }
  }
  return universe;
}

enum class Arrival { in_order, reversed, shuffled, duplicated };

/// The universe in one arrival order. in_order interleaves the origins
/// round-robin with each origin's seqs ascending, the common live case.
std::vector<Update> arrival_order(std::vector<Update> universe, Arrival how,
                                  Rng& rng) {
  std::stable_sort(universe.begin(), universe.end(),
                   [](const Update& a, const Update& b) {
                     return std::tuple(a.id.seq, a.id.origin) <
                            std::tuple(b.id.seq, b.id.origin);
                   });
  switch (how) {
    case Arrival::in_order:
      break;
    case Arrival::reversed:
      std::reverse(universe.begin(), universe.end());
      break;
    case Arrival::shuffled:
      rng.shuffle(universe);
      break;
    case Arrival::duplicated: {
      const std::size_t n = universe.size();
      for (std::size_t i = 0; i < n; ++i) universe.push_back(universe[rng.index(n)]);
      rng.shuffle(universe);
      break;
    }
  }
  return universe;
}

/// A random summary over the universe's ids plus a few never written.
SummaryVector random_summary(const std::vector<Update>& universe, Rng& rng,
                             double p) {
  SummaryVector sv;
  for (const Update& u : universe) {
    if (rng.bernoulli(p)) sv.add(u.id);
  }
  sv.add(UpdateId{999, 1 + rng.index(3)});
  return sv;
}

void expect_matches_model(const WriteLog& log, const LogModel& model,
                          const std::vector<Update>& universe, Rng& rng) {
  ASSERT_EQ(log.size(), model.retained.size());
  EXPECT_EQ(log.applied_total(), model.applied.size());
  for (const Update& u : universe) {
    const bool applied = model.applied.count(u.id) != 0;
    const auto kept = model.retained.find(u.id);
    EXPECT_EQ(log.contains(u.id), applied);
    const Update* found = log.find(u.id);
    if (kept == model.retained.end()) {
      EXPECT_EQ(found, nullptr);
      EXPECT_FALSE(log.get(u.id).has_value());
    } else {
      ASSERT_NE(found, nullptr);
      EXPECT_EQ(*found, kept->second);
      EXPECT_EQ(log.get(u.id), kept->second);
    }
  }
  std::vector<Update> expected_all;
  for (const auto& [id, u] : model.retained) expected_all.push_back(u);
  EXPECT_EQ(log.all_retained(), expected_all);

  // updates_for: every applied id the other side lacks, payload-bearing
  // ones shipped in the summary's missing_from order, the rest reported.
  const SummaryVector theirs = random_summary(universe, rng, 0.4);
  std::vector<UpdateId> truncated;
  const std::vector<Update> shipped = log.updates_for(theirs, &truncated);
  std::vector<UpdateId> expected_shipped, expected_truncated;
  for (const UpdateId id : log.summary().missing_from(theirs)) {
    ASSERT_EQ(model.applied.count(id), 1u);
    (model.retained.count(id) != 0 ? expected_shipped : expected_truncated)
        .push_back(id);
  }
  std::size_t lacking = 0;
  for (const auto& [id, u] : model.applied) lacking += theirs.contains(id) ? 0 : 1;
  EXPECT_EQ(expected_shipped.size() + expected_truncated.size(), lacking);
  ASSERT_EQ(shipped.size(), expected_shipped.size());
  for (std::size_t i = 0; i < shipped.size(); ++i) {
    EXPECT_EQ(shipped[i], model.retained.at(expected_shipped[i]));
  }
  EXPECT_EQ(truncated, expected_truncated);

  const auto kv = model.kv();
  std::vector<std::string> expected_keys;
  for (const auto& [key, value] : kv) {
    expected_keys.push_back(key);
    EXPECT_EQ(log.read(key), value);
  }
  EXPECT_EQ(log.keys(), expected_keys);
  EXPECT_FALSE(log.read("absent").has_value());
}

TEST(WriteLogModelTest, MatchesReferenceModelInEveryArrivalOrder) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    for (const Arrival how : {Arrival::in_order, Arrival::reversed,
                              Arrival::shuffled, Arrival::duplicated}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " arrival "
                                      << static_cast<int>(how));
      Rng rng(seed);
      const auto origins = static_cast<NodeId>(3 + rng.index(3));
      const std::vector<Update> universe = make_universe(rng, origins, 8);
      WriteLog log;
      LogModel model;
      for (const Update& u : arrival_order(universe, how, rng)) {
        EXPECT_EQ(log.apply(u), model.apply(u));
        if (rng.bernoulli(0.1)) {
          const SummaryVector stable = random_summary(universe, rng, 0.3);
          std::size_t expected = 0;
          std::erase_if(model.retained, [&](const auto& entry) {
            const bool drop = stable.contains(entry.first);
            expected += drop ? 1 : 0;
            return drop;
          });
          EXPECT_EQ(log.truncate_below(stable), expected);
        }
        expect_matches_model(log, model, universe, rng);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(WriteLogModelTest, MaterialisedStateIgnoresArrivalOrder) {
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    Rng rng(seed);
    const std::vector<Update> universe =
        make_universe(rng, static_cast<NodeId>(3 + rng.index(3)), 10);
    WriteLog reference;
    for (const Update& u : universe) reference.apply(u);
    for (const Arrival how : {Arrival::in_order, Arrival::reversed,
                              Arrival::shuffled, Arrival::duplicated}) {
      WriteLog log;
      for (const Update& u : arrival_order(universe, how, rng)) log.apply(u);
      EXPECT_EQ(log.kv_digest(), reference.kv_digest());
      EXPECT_EQ(log.keys(), reference.keys());
      for (const std::string& key : reference.keys()) {
        EXPECT_EQ(log.read(key), reference.read(key));
      }
      EXPECT_EQ(log.all_retained(), reference.all_retained());
      EXPECT_EQ(log.summary(), reference.summary());
    }
  }
}

TEST(WriteLogModelTest, RestoreMergesAnOverlappingImage) {
  Rng rng(21);
  const std::vector<Update> universe = make_universe(rng, 4, 8);
  const std::vector<Update> order = arrival_order(universe, Arrival::shuffled, rng);
  WriteLog log;
  LogModel model;
  // The log already holds the first half; the image repeats a quarter of
  // it, adds the rest, and carries one id twice (a WAL suffix overlapping
  // its checkpoint).
  const std::size_t half = order.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    log.apply(order[i]);
    model.apply(order[i]);
  }
  std::vector<Update> image(order.begin() + static_cast<std::ptrdiff_t>(half / 2),
                            order.end());
  image.push_back(order.back());
  for (const Update& u : image) model.apply(u);
  // The cover also names ids truncated before the checkpoint: covered,
  // but with no payload and no value.
  SummaryVector cover;
  for (const Update& u : image) cover.add(u.id);
  cover.add(UpdateId{999, 1});
  cover.add(UpdateId{999, 2});
  log.restore(image, cover);
  EXPECT_TRUE(log.contains(UpdateId{999, 2}));
  EXPECT_EQ(log.find(UpdateId{999, 2}), nullptr);
  EXPECT_EQ(log.applied_total(), model.applied.size() + 2);
  EXPECT_EQ(log.size(), model.retained.size());
  std::vector<Update> expected_all;
  for (const auto& [id, u] : model.retained) expected_all.push_back(u);
  EXPECT_EQ(log.all_retained(), expected_all);
  for (const auto& [key, value] : model.kv()) EXPECT_EQ(log.read(key), value);
}

TEST(WriteLogModelTest, ClearThenReuseBehavesLikeAFreshLog) {
  Rng rng(31);
  const std::vector<Update> first = make_universe(rng, 5, 6);
  const std::vector<Update> second = make_universe(rng, 3, 9);
  WriteLog reused;
  for (const Update& u : arrival_order(first, Arrival::shuffled, rng)) reused.apply(u);
  SummaryVector stable;
  stable.add(first.front().id);
  reused.truncate_below(stable);
  reused.clear();
  const WriteLog empty;
  EXPECT_EQ(reused.size(), 0u);
  EXPECT_EQ(reused.applied_total(), 0u);
  EXPECT_TRUE(reused.all_retained().empty());
  EXPECT_TRUE(reused.keys().empty());
  EXPECT_EQ(reused.summary(), empty.summary());
  EXPECT_EQ(reused.kv_digest(), empty.kv_digest());
  EXPECT_FALSE(reused.contains(first.front().id));

  WriteLog fresh;
  LogModel model;
  for (const Update& u : arrival_order(second, Arrival::duplicated, rng)) {
    EXPECT_EQ(reused.apply(u), fresh.apply(u));
    model.apply(u);
  }
  EXPECT_EQ(reused.all_retained(), fresh.all_retained());
  EXPECT_EQ(reused.summary(), fresh.summary());
  EXPECT_EQ(reused.kv_digest(), fresh.kv_digest());
  expect_matches_model(reused, model, second, rng);
}

}  // namespace
}  // namespace fastcons
