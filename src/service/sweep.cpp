#include "service/sweep.hpp"

#include <cmath>
#include <cstdint>
#include <limits>

#include "common/error.hpp"

namespace qre::service {

namespace {

constexpr double kMaxExactInt = 9.0e15;  // below 2^53; int64 round-trips

/// Largest number of steps a single range axis may resolve; anything bigger
/// could never pass expand_sweep's grid cap, so fail before allocating.
constexpr std::int64_t kMaxRangeSteps = 1'000'000;

/// Emits `v` as a JSON integer when it lands on one, so swept counts (code
/// distances, factory caps) keep their integer type. Grid arithmetic like
/// 1 + (9/33)*99 accumulates a few ulps of error, so values within a tight
/// relative tolerance of an integer snap to it; genuinely fractional values
/// (small error budgets included) are far outside the tolerance.
json::Value number_value(double v) {
  const double r = std::round(v);
  const double tolerance = 32.0 * std::numeric_limits<double>::epsilon() * std::fabs(v);
  if (std::fabs(v - r) <= tolerance && std::fabs(r) <= kMaxExactInt) {
    return json::Value(static_cast<std::int64_t>(r));
  }
  return json::Value(v);
}

/// Resolves a {start, stop, steps, scale} range axis to explicit values.
std::vector<json::Value> resolve_range(const json::Value& spec, const std::string& path) {
  for (const auto& [key, value] : spec.as_object()) {
    (void)value;
    QRE_REQUIRE(key == "start" || key == "stop" || key == "steps" || key == "scale",
                "sweep axis '" + path + "': unknown range field '" + key +
                    "' (expected start, stop, steps, scale)");
  }
  const double start = spec.at("start").as_double();
  const double stop = spec.at("stop").as_double();
  const std::int64_t steps = spec.at("steps").as_int();
  QRE_REQUIRE(steps >= 1, "sweep axis '" + path + "': steps must be >= 1");
  QRE_REQUIRE(steps <= kMaxRangeSteps,
              "sweep axis '" + path + "': steps exceeds the maximum axis size");
  std::string scale = "linear";
  if (const json::Value* s = spec.find("scale")) scale = s->as_string();
  QRE_REQUIRE(scale == "linear" || scale == "log",
              "sweep axis '" + path + "': scale must be linear or log");
  if (scale == "log") {
    QRE_REQUIRE(start > 0.0 && stop > 0.0,
                "sweep axis '" + path + "': log scale requires positive start and stop");
  }

  std::vector<json::Value> values;
  values.reserve(static_cast<std::size_t>(steps));
  for (std::int64_t i = 0; i < steps; ++i) {
    // The endpoints must reproduce start/stop bit-exactly: pow(stop/start, t)
    // at t == 1 (and linear interpolation at the last step) can drift by an
    // ulp, which would give range and explicit-array sweeps over the same
    // values divergent canonical cache keys and duplicate store records.
    double v;
    if (i == 0) {
      v = start;
    } else if (i == steps - 1) {
      v = stop;
    } else {
      const double t = static_cast<double>(i) / static_cast<double>(steps - 1);
      v = scale == "linear" ? start + t * (stop - start)
                            : start * std::pow(stop / start, t);
    }
    values.push_back(number_value(v));
  }
  return values;
}

}  // namespace

void set_path(json::Value& root, const std::string& path, json::Value value) {
  QRE_REQUIRE(root.is_object(), "sweep can only set fields on JSON objects");
  const std::size_t dot = path.find('.');
  if (dot == std::string::npos) {
    QRE_REQUIRE(!path.empty(), "sweep field path must not be empty");
    root.set(path, std::move(value));
    return;
  }
  const std::string head = path.substr(0, dot);
  const std::string rest = path.substr(dot + 1);
  QRE_REQUIRE(!head.empty() && !rest.empty(),
              "sweep field path '" + path + "' has an empty segment");
  json::Value child{json::Object{}};
  if (const json::Value* existing = root.find(head)) {
    QRE_REQUIRE(existing->is_object(),
                "sweep axis path '" + path + "': field '" + head +
                    "' exists but is not an object, so the dotted path cannot "
                    "descend through it");
    child = *existing;
  }
  set_path(child, rest, std::move(value));
  root.set(head, std::move(child));
}

std::vector<SweepAxis> sweep_axes(const json::Value& sweep) {
  QRE_REQUIRE(sweep.is_object(), "sweep must be a JSON object");
  std::vector<SweepAxis> axes;
  for (const auto& [path, spec] : sweep.as_object()) {
    SweepAxis axis;
    axis.path = path;
    if (spec.is_array()) {
      axis.values = spec.as_array();
      QRE_REQUIRE(!axis.values.empty(),
                  "sweep axis '" + path + "' must list at least one value");
    } else if (spec.is_object()) {
      axis.values = resolve_range(spec, path);
    } else {
      throw_error("sweep axis '" + path +
                  "' must be an array of values or a {start, stop, steps} range");
    }
    axes.push_back(std::move(axis));
  }
  QRE_REQUIRE(!axes.empty(), "sweep must define at least one axis");
  return axes;
}

std::size_t sweep_grid_size(const std::vector<SweepAxis>& axes, std::size_t max_items) {
  std::size_t total = 1;
  for (const SweepAxis& axis : axes) {
    QRE_REQUIRE(axis.values.size() <= max_items / total,
                "sweep grid exceeds the maximum item count");
    total *= axis.values.size();
  }
  return total;
}

json::Value sweep_base(const json::Value& job) {
  json::Object base;
  for (const auto& [key, value] : job.as_object()) {
    if (key != "sweep" && key != "items") base.emplace_back(key, value);
  }
  return json::Value(std::move(base));
}

std::vector<json::Value> expand_sweep(const json::Value& job, std::size_t max_items) {
  QRE_REQUIRE(job.is_object(), "sweep job must be a JSON object");
  const json::Value* sweep = job.find("sweep");
  QRE_REQUIRE(sweep != nullptr, "job has no sweep to expand");
  const std::vector<SweepAxis> axes = sweep_axes(*sweep);
  const std::size_t total = sweep_grid_size(axes, max_items);
  const json::Value base_value = sweep_base(job);

  std::vector<json::Value> items;
  items.reserve(total);
  for (std::size_t index = 0; index < total; ++index) {
    json::Value item = base_value;
    // Row-major: the first declared axis varies slowest.
    std::size_t remainder = index;
    std::size_t stride = total;
    for (const SweepAxis& axis : axes) {
      stride /= axis.values.size();
      const std::size_t pick = remainder / stride;
      remainder %= stride;
      set_path(item, axis.path, axis.values[pick]);
    }
    items.push_back(std::move(item));
  }
  return items;
}

}  // namespace qre::service
