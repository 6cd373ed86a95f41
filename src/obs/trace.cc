#include "obs/trace.h"

#include <cmath>
#include <cstdio>

namespace lqolab::obs {

JsonObject& JsonObject::Set(const std::string& key, int64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

JsonObject& JsonObject::Set(const std::string& key, double value) {
  // JSON has no NaN/Infinity literal — a bare `nan` from %g corrupts the
  // whole line for any conforming reader. Non-finite values (e.g. a
  // diverged model's prediction) are data loss in one field, not in the
  // record: emit null and let readers skip the field.
  if (!std::isfinite(value)) {
    fields_.emplace_back(key, "null");
    return *this;
  }
  // %.12g round-trips every value the framework emits (losses, ratios)
  // while keeping lines compact; integers print without a trailing ".0".
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  fields_.emplace_back(key, buf);
  return *this;
}

JsonObject& JsonObject::Set(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

JsonObject& JsonObject::Set(const std::string& key, const std::string& value) {
  // Appended, not `"\"" + ...`: GCC 12 misreports -Wrestrict on
  // `const char* + std::string&&`.
  std::string quoted = "\"";
  quoted += Escape(value);
  quoted += '"';
  fields_.emplace_back(key, std::move(quoted));
  return *this;
}

JsonObject& JsonObject::SetRaw(const std::string& key, std::string raw_json) {
  fields_.emplace_back(key, std::move(raw_json));
  return *this;
}

std::string JsonObject::Escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonObject::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + fields_[i].first + "\":" + fields_[i].second;
  }
  out += "}";
  return out;
}

TraceWriter::TraceWriter(const std::string& path)
    : path_(path), out_(path, std::ios::trunc) {}

void TraceWriter::Write(const JsonObject& record) {
  out_ << record.ToString() << "\n";
  out_.flush();
  ++records_;
}

void WriteMetricsTrace(const MetricsRegistry& metrics, TraceWriter* trace) {
  JsonObject record;
  record.Set("type", "metrics");
  const std::string json = metrics.ToJson();
  // ToJson() renders {"counters":...,"histograms":...}; splice its two
  // members into this record rather than nesting a redundant object.
  record.SetRaw("metrics", json);
  trace->Write(record);
}

}  // namespace lqolab::obs
