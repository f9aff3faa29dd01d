#include "src/faults/schedule.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

namespace leak::faults {

namespace {

[[noreturn]] void fail(const std::string& msg) {
  throw std::invalid_argument(msg);
}

const char* kind_name(const FaultEvent& e) {
  switch (e.index()) {
    case 0: return "partition-open";
    case 1: return "partition-heal";
    case 2: return "latency";
    case 3: return "loss";
    default: return "outage";
  }
}

const char* link_name(LinkClass link) {
  switch (link) {
    case LinkClass::kAll: return "all";
    case LinkClass::kIntra: return "intra";
    case LinkClass::kCross: return "cross";
  }
  return "all";
}

LinkClass link_of(const json::Field& f) {
  const std::string& name = f.string();
  if (name == "all") return LinkClass::kAll;
  if (name == "intra") return LinkClass::kIntra;
  if (name == "cross") return LinkClass::kCross;
  f.fail("unknown link class \"" + name + "\" (expected all, intra or cross)");
}

/// Can two weather episodes afflict the same link?
bool links_collide(LinkClass a, LinkClass b) {
  return a == b || a == LinkClass::kAll || b == LinkClass::kAll;
}

constexpr std::uint32_t kMaxBranch = 255;
constexpr const char* kBranchId = "a branch id in [0, 255]";
constexpr const char* kEpoch = "a non-negative integer epoch";
constexpr std::int64_t kMaxEpoch = std::numeric_limits<std::int64_t>::max();

std::string event_path(std::size_t index) {
  return "schedule.events[" + std::to_string(index) + "]";
}

FaultEvent parse_event(const json::Field& at) {
  json::Fields f(at);
  const json::Field kind_field = f.get("kind");
  const std::string& kind = kind_field.string();
  const auto epoch = [&f](const char* key) {
    return static_cast<std::size_t>(f.get(key).integer(0, kMaxEpoch, kEpoch));
  };
  const auto branch = [&f](const char* key) {
    return static_cast<std::uint32_t>(
        f.get(key).integer(0, kMaxBranch, kBranchId));
  };
  // Braced initializers read their fields left to right.
  FaultEvent event;
  if (kind == "partition-open") {
    event = PartitionOpen{epoch("epoch"), branch("branch")};
  } else if (kind == "partition-heal") {
    event = PartitionHeal{epoch("epoch"), branch("branch"), branch("into")};
  } else if (kind == "latency") {
    event = LatencyEpisode{f.get("from_epoch").number(),
                           f.get("span_epochs").number(),
                           link_of(f.get("link")), f.get("factor").number()};
  } else if (kind == "loss") {
    event = LossEpisode{f.get("from_epoch").number(),
                        f.get("span_epochs").number(), link_of(f.get("link")),
                        f.get("drop").number()};
  } else if (kind == "outage") {
    event = ValidatorOutage{epoch("from_epoch"), epoch("span_epochs"),
                            f.get("cohort").number()};
  } else {
    kind_field.fail("unknown event kind \"" + kind +
                    "\" (expected partition-open, partition-heal, "
                    "latency, loss or outage)");
  }
  f.finish();
  return event;
}

json::Value event_to_json(const FaultEvent& event) {
  json::Value obj = json::Value::object();
  obj.set("kind", kind_name(event));
  if (const auto* e = std::get_if<PartitionOpen>(&event)) {
    obj.set("epoch", static_cast<std::uint64_t>(e->epoch));
    obj.set("branch", static_cast<std::uint64_t>(e->branch));
  } else if (const auto* e = std::get_if<PartitionHeal>(&event)) {
    obj.set("epoch", static_cast<std::uint64_t>(e->epoch));
    obj.set("branch", static_cast<std::uint64_t>(e->branch));
    obj.set("into", static_cast<std::uint64_t>(e->into));
  } else if (const auto* e = std::get_if<LatencyEpisode>(&event)) {
    obj.set("from_epoch", e->from_epoch);
    obj.set("span_epochs", e->span_epochs);
    obj.set("link", link_name(e->link));
    obj.set("factor", e->factor);
  } else if (const auto* e = std::get_if<LossEpisode>(&event)) {
    obj.set("from_epoch", e->from_epoch);
    obj.set("span_epochs", e->span_epochs);
    obj.set("link", link_name(e->link));
    obj.set("drop", e->drop);
  } else if (const auto* e = std::get_if<ValidatorOutage>(&event)) {
    obj.set("from_epoch", static_cast<std::uint64_t>(e->from_epoch));
    obj.set("span_epochs", static_cast<std::uint64_t>(e->span_epochs));
    obj.set("cohort", e->cohort);
  }
  return obj;
}

/// [start, end) of a weather episode for the overlap rules.
struct Span {
  double from = 0.0;
  double to = 0.0;
  LinkClass link = LinkClass::kAll;
  std::size_t index = 0;
};

void check_episode_overlap(const std::vector<Span>& spans,
                           const char* kind) {
  for (std::size_t i = 0; i < spans.size(); ++i) {
    for (std::size_t j = i + 1; j < spans.size(); ++j) {
      const Span& a = spans[i];
      const Span& b = spans[j];
      if (!links_collide(a.link, b.link)) continue;
      if (a.from < b.to && b.from < a.to) {
        fail(event_path(b.index) + ": overlapping " + std::string(kind) +
             " episodes on link class " + link_name(a.link) + "/" +
             link_name(b.link) + ": events[" + std::to_string(a.index) +
             "] spans [" + json::format_double(a.from) + ", " +
             json::format_double(a.to) + ") and this one starts at " +
             json::format_double(b.from) +
             " (split or merge them -- stacked episodes are ambiguous)");
      }
    }
  }
}

}  // namespace

double event_start(const FaultEvent& e) {
  if (const auto* open = std::get_if<PartitionOpen>(&e)) {
    return static_cast<double>(open->epoch);
  }
  if (const auto* heal = std::get_if<PartitionHeal>(&e)) {
    return static_cast<double>(heal->epoch);
  }
  if (const auto* lat = std::get_if<LatencyEpisode>(&e)) {
    return lat->from_epoch;
  }
  if (const auto* loss = std::get_if<LossEpisode>(&e)) {
    return loss->from_epoch;
  }
  return static_cast<double>(std::get<ValidatorOutage>(e).from_epoch);
}

void FaultSchedule::validate() const {
  // Monotone timeline.
  for (std::size_t i = 1; i < events.size(); ++i) {
    const double prev = event_start(events[i - 1]);
    const double cur = event_start(events[i]);
    if (cur < prev) {
      fail(event_path(i) + ": events must be ordered by start epoch: this " +
           kind_name(events[i]) + " (t=" + json::format_double(cur) +
           ") starts before events[" + std::to_string(i - 1) + "] (t=" +
           json::format_double(prev) + ")");
    }
  }

  std::vector<std::size_t> open_epoch_of(kMaxBranch + 1, 0);  // 0 = not opened
  std::vector<std::size_t> heal_epoch_of(kMaxBranch + 1, 0);  // 0 = not healed
  std::uint32_t top_branch = 0;
  std::vector<Span> latency, loss;
  std::vector<std::pair<std::size_t, std::size_t>> outages;  // [from, to)

  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::string where = event_path(i);
    if (const auto* e = std::get_if<PartitionOpen>(&events[i])) {
      if (e->branch > kMaxBranch) {
        fail(where + ": \"branch\" must be " + kBranchId);
      }
      if (e->epoch < 1) fail(where + ": open epoch must be >= 1");
      if (e->branch < 1) {
        fail(where + ": branch 0 is the canonical branch and is always "
             "open; opens need branch >= 1");
      }
      if (open_epoch_of[e->branch] != 0) {
        fail(where + ": branch " + std::to_string(e->branch) +
             " opened twice (first at epoch " +
             std::to_string(open_epoch_of[e->branch]) + ")");
      }
      open_epoch_of[e->branch] = e->epoch;
      top_branch = std::max(top_branch, e->branch);
    } else if (const auto* e = std::get_if<PartitionHeal>(&events[i])) {
      if (e->branch > kMaxBranch) {
        fail(where + ": \"branch\" must be " + kBranchId);
      }
      if (e->into != 0) {
        fail(where + ": only merges into the canonical branch 0 are "
             "supported (got into=" + std::to_string(e->into) + ")");
      }
      if (e->branch < 1 || open_epoch_of[e->branch] == 0) {
        fail(where + ": branch " + std::to_string(e->branch) +
             " heals without a prior partition-open");
      }
      if (heal_epoch_of[e->branch] != 0) {
        fail(where + ": overlapping heals for branch " +
             std::to_string(e->branch) + " (already healed at epoch " +
             std::to_string(heal_epoch_of[e->branch]) + ")");
      }
      if (e->epoch <= open_epoch_of[e->branch]) {
        fail(where + ": heal epoch " + std::to_string(e->epoch) +
             " must be after the branch opened (epoch " +
             std::to_string(open_epoch_of[e->branch]) + ")");
      }
      heal_epoch_of[e->branch] = e->epoch;
    } else if (const auto* e = std::get_if<LatencyEpisode>(&events[i])) {
      if (e->span_epochs <= 0.0) {
        fail(where + ": span_epochs must be positive (got " +
             json::format_double(e->span_epochs) + ")");
      }
      if (e->from_epoch < 0.0) fail(where + ": from_epoch must be >= 0");
      if (e->factor <= 0.0) {
        fail(where + ": factor must be > 0 (got " +
             json::format_double(e->factor) + ")");
      }
      latency.push_back({e->from_epoch, e->from_epoch + e->span_epochs,
                         e->link, i});
    } else if (const auto* e = std::get_if<LossEpisode>(&events[i])) {
      if (e->span_epochs <= 0.0) {
        fail(where + ": span_epochs must be positive (got " +
             json::format_double(e->span_epochs) + ")");
      }
      if (e->from_epoch < 0.0) fail(where + ": from_epoch must be >= 0");
      if (e->drop < 0.0 || e->drop > 1.0) {
        fail(where + ": drop must be a probability in [0, 1] (got " +
             json::format_double(e->drop) + ")");
      }
      loss.push_back({e->from_epoch, e->from_epoch + e->span_epochs,
                      e->link, i});
    } else if (const auto* e = std::get_if<ValidatorOutage>(&events[i])) {
      if (e->span_epochs == 0) fail(where + ": span_epochs must be >= 1");
      if (e->cohort <= 0.0 || e->cohort > 1.0) {
        fail(where + ": cohort must be in (0, 1] (got " +
             json::format_double(e->cohort) + ")");
      }
      for (const auto& [from, to] : outages) {
        if (e->from_epoch < to && from < e->from_epoch + e->span_epochs) {
          fail(where + ": overlapping outages (an earlier outage spans [" +
               std::to_string(from) + ", " + std::to_string(to) + "))");
        }
      }
      outages.emplace_back(e->from_epoch, e->from_epoch + e->span_epochs);
    }
  }

  // Compiled branch ids must be dense: the partition simulator indexes
  // branches contiguously, so a schedule opening branches {1, 3} has
  // no meaning for branch 2.
  for (std::uint32_t b = 1; b <= top_branch; ++b) {
    if (open_epoch_of[b] == 0) {
      fail("schedule.events: branch ids must be contiguous from 1: branch " +
           std::to_string(top_branch) + " opens but branch " +
           std::to_string(b) + " never does");
    }
  }

  check_episode_overlap(latency, "latency");
  check_episode_overlap(loss, "loss");
}

std::uint32_t FaultSchedule::max_branch() const {
  std::uint32_t top = 0;
  for (const FaultEvent& e : events) {
    if (const auto* open = std::get_if<PartitionOpen>(&e)) {
      top = std::max(top, open->branch);
    }
  }
  return top;
}

json::Value FaultSchedule::to_json() const {
  json::Value doc = json::Value::object();
  doc.set("version", static_cast<std::int64_t>(1));
  json::Value arr = json::Value::array();
  for (const FaultEvent& e : events) arr.push_back(event_to_json(e));
  doc.set("events", std::move(arr));
  return doc;
}

std::string FaultSchedule::dump() const { return to_json().dump(); }

FaultSchedule FaultSchedule::from_json(const json::Value& doc) {
  json::Fields f(json::Field(doc, "schedule"));
  (void)f.get("version").integer(1, 1);
  FaultSchedule s;
  f.get("events").each([&s](const json::Field& event) {
    s.events.push_back(parse_event(event));
  });
  f.finish();
  s.validate();
  return s;
}

FaultSchedule FaultSchedule::from_string(const std::string& text) {
  std::string error;
  const auto doc = json::Value::parse(text, &error);
  if (!doc) fail("schedule: " + error);
  return from_json(*doc);
}

FaultSchedule FaultSchedule::load_file(const std::string& path) {
  std::string error;
  const auto doc = json::Value::load_file(path, &error);
  if (!doc) fail(error);
  try {
    return from_json(*doc);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(path + ": " + e.what());
  }
}

FaultSchedule FaultSchedule::staggered_partition(std::uint32_t branches,
                                                 std::size_t open_stagger,
                                                 std::size_t heal_epoch,
                                                 std::size_t heal_stagger) {
  if (branches < 2) {
    fail("staggered_partition: need branches >= 2 (got " +
         std::to_string(branches) + ")");
  }
  std::vector<FaultEvent> opens, heals;
  for (std::uint32_t b = 1; b < branches; ++b) {
    opens.push_back(PartitionOpen{
        1 + static_cast<std::size_t>(b - 1) * open_stagger, b});
    if (heal_epoch > 0) {
      heals.push_back(PartitionHeal{
          heal_epoch + static_cast<std::size_t>(b - 1) * heal_stagger, b, 0});
    }
  }
  // Both lists are sorted by construction; merge keeps the timeline
  // monotone even when heals interleave with later opens.
  FaultSchedule s;
  std::merge(opens.begin(), opens.end(), heals.begin(), heals.end(),
             std::back_inserter(s.events),
             [](const FaultEvent& a, const FaultEvent& b) {
               return event_start(a) < event_start(b);
             });
  s.validate();
  return s;
}

}  // namespace leak::faults
