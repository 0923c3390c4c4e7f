#include "pmtree/fault/plan.hpp"

#include <algorithm>

#include "pmtree/util/rng.hpp"

namespace pmtree::fault {

FaultPlan FaultPlan::random(const RandomOptions& options) {
  FaultPlan plan;
  if (options.modules == 0) return plan;
  Rng rng(options.seed);

  // Fail-stop draw: a Fisher-Yates prefix picks `fail_count` distinct
  // modules; capping at modules - 1 keeps at least one survivor so the
  // timeline never has to spare anyone.
  const auto want = static_cast<std::uint64_t>(
      options.fail_fraction * static_cast<double>(options.modules));
  const std::uint64_t fail_count =
      std::min<std::uint64_t>(want, options.modules - 1);
  std::vector<std::uint32_t> ids(options.modules);
  for (std::uint32_t m = 0; m < options.modules; ++m) ids[m] = m;
  for (std::uint64_t j = 0; j < fail_count; ++j) {
    const std::uint64_t pick = j + rng.below(options.modules - j);
    std::swap(ids[j], ids[pick]);
    const std::uint64_t cycle =
        options.fail_window == 0 ? 0 : rng.below(options.fail_window);
    plan.fail_stop(ids[j], cycle);
  }

  for (std::uint32_t s = 0; s < options.slowdown_count; ++s) {
    const auto module = static_cast<std::uint32_t>(rng.below(options.modules));
    const std::uint64_t begin =
        options.slowdown_window == 0 ? 0 : rng.below(options.slowdown_window);
    const std::uint64_t length =
        rng.between(1, std::max<std::uint64_t>(options.slowdown_max_length, 1));
    const std::uint64_t period =
        rng.between(2, std::max<std::uint64_t>(options.slowdown_max_period, 2));
    plan.slow_down(module, begin, begin + length, period);
  }
  return plan;
}

Json FaultPlan::to_json() const {
  Json j = Json::object();
  Json fails = Json::array();
  for (const FailStop& f : fail_stops_) {
    Json e = Json::object();
    e.set("module", Json(std::uint64_t{f.module}));
    e.set("cycle", Json(f.cycle));
    fails.push_back(std::move(e));
  }
  j.set("fail_stops", std::move(fails));
  Json slows = Json::array();
  for (const Slowdown& s : slowdowns_) {
    Json e = Json::object();
    e.set("module", Json(std::uint64_t{s.module}));
    e.set("begin", Json(s.begin));
    e.set("end", Json(s.end));
    e.set("period", Json(s.period));
    slows.push_back(std::move(e));
  }
  j.set("slowdowns", std::move(slows));
  return j;
}

FaultTimeline::FaultTimeline(const FaultPlan& plan, std::uint32_t modules) {
  fail_cycle_.assign(modules, kNever);
  redirect_.resize(modules);
  slow_by_module_.resize(modules);

  for (const FailStop& f : plan.fail_stops()) {
    if (f.module >= modules) continue;
    fail_cycle_[f.module] = std::min(fail_cycle_[f.module], f.cycle);
  }
  for (const Slowdown& s : plan.slowdowns()) {
    if (s.module >= modules || s.period <= 1 || s.end <= s.begin) continue;
    slow_by_module_[s.module].push_back(s);
    has_slowdowns_ = true;
  }

  // Spare one module if the plan killed them all: the latest failure
  // (ties: highest id) is the natural survivor, and a deterministic one.
  bool any_live = false;
  for (std::uint32_t m = 0; m < modules; ++m) {
    any_live = any_live || fail_cycle_[m] == kNever;
  }
  if (!any_live && modules > 0) {
    std::uint32_t spare = 0;
    for (std::uint32_t m = 1; m < modules; ++m) {
      if (fail_cycle_[m] >= fail_cycle_[spare]) spare = m;
    }
    fail_cycle_[spare] = kNever;
  }

  for (std::uint32_t m = 0; m < modules; ++m) {
    redirect_[m] = m;
    if (fail_cycle_[m] == kNever) {
      live_.push_back(m);
    } else {
      dead_.push_back(m);
      fail_events_.push_back(FailEvent{fail_cycle_[m], m});
    }
  }
  for (std::size_t j = 0; j < dead_.size(); ++j) {
    redirect_[dead_[j]] = live_[j % live_.size()];
  }
  // Gates: sweep each module's begin/end points in order, keeping the
  // slowdowns open at the current point; every stretch between two
  // consecutive points with an open slowdown is one gate.
  gate_first_.assign(modules + 1, 0);
  std::vector<std::uint64_t> points;
  std::vector<Slowdown> open;
  for (std::uint32_t m = 0; m < modules; ++m) {
    std::vector<Slowdown>& slows = slow_by_module_[m];
    std::sort(slows.begin(), slows.end(),
              [](const Slowdown& a, const Slowdown& b) {
                return a.begin < b.begin;
              });
    points.clear();
    for (const Slowdown& s : slows) {
      points.push_back(s.begin);
      points.push_back(s.end);
    }
    std::sort(points.begin(), points.end());
    points.erase(std::unique(points.begin(), points.end()), points.end());
    open.clear();
    std::size_t next = 0;
    for (std::size_t p = 0; p + 1 < points.size(); ++p) {
      const std::uint64_t at = points[p];
      std::erase_if(open, [at](const Slowdown& s) { return s.end <= at; });
      for (; next < slows.size() && slows[next].begin <= at; ++next) {
        open.push_back(slows[next]);
      }
      if (open.empty()) continue;
      gates_.push_back(Gate{at, points[p + 1],
                            static_cast<std::uint32_t>(covers_.size()),
                            static_cast<std::uint32_t>(open.size())});
      covers_.insert(covers_.end(), open.begin(), open.end());
    }
    gate_first_[m + 1] = static_cast<std::uint32_t>(gates_.size());
  }

  std::sort(fail_events_.begin(), fail_events_.end(),
            [](const FailEvent& a, const FailEvent& b) {
              if (a.cycle != b.cycle) return a.cycle < b.cycle;
              return a.module < b.module;
            });
}

}  // namespace pmtree::fault
