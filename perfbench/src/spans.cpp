#include "spans.hpp"

namespace perfbench {

using ldc::harness::Json;

SpanRecorder::Scope::Scope(SpanRecorder& rec, std::string name) : rec_(rec) {
  if (!rec_.enabled_) return;
  Span s;
  s.id = rec_.spans_.size() + 1;
  s.parent = rec_.open_.empty() ? 0 : rec_.spans_[rec_.open_.back()].id;
  s.name = std::move(name);
  s.start_ns = rec_.now_ns();
  index_ = rec_.spans_.size();
  rec_.spans_.push_back(std::move(s));
  rec_.open_.push_back(index_);
  open_ = true;
}

SpanRecorder::Scope::~Scope() {
  if (!open_) return;
  rec_.spans_[index_].end_ns = rec_.now_ns();
  rec_.open_.pop_back();
}

void SpanRecorder::add_closed(std::string name, std::uint64_t parent,
                              std::uint64_t start_ns, std::uint64_t end_ns) {
  if (!enabled_) return;
  Span s;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.name = std::move(name);
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  spans_.push_back(std::move(s));
}

std::uint64_t SpanRecorder::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

Json SpanRecorder::to_trace_events(const Json& metadata) const {
  Json events = Json::array();
  for (const Span& s : spans_) {
    Json e = Json::object();
    e.add("name", s.name);
    e.add("ph", "X");
    e.add("ts", static_cast<double>(s.start_ns) / 1e3);  // microseconds
    e.add("dur", static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    e.add("pid", 1);
    e.add("tid", 1);
    Json args = Json::object();
    args.add("id", s.id);
    args.add("parent", s.parent);
    args.add("start_ns", s.start_ns);
    args.add("end_ns", s.end_ns);
    e.add("args", std::move(args));
    events.push_back(std::move(e));
  }
  Json doc = Json::object();
  doc.add("traceEvents", std::move(events));
  doc.add("displayTimeUnit", "ms");
  doc.add("metadata", metadata);
  return doc;
}

bool spans_nest(const std::vector<Span>& spans) {
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.id != i + 1 || s.end_ns < s.start_ns) return false;
    if (s.parent == 0) continue;
    if (s.parent >= s.id) return false;
    const Span& p = spans[s.parent - 1];
    if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) return false;
  }
  return true;
}

std::vector<Span> spans_from_trace_events(const Json& doc) {
  std::vector<Span> out;
  for (const Json& e : doc.at("traceEvents").as_array()) {
    const Json& args = e.at("args");
    Span s;
    s.name = e.at("name").as_string();
    s.id = args.at("id").as_uint();
    s.parent = args.at("parent").as_uint();
    s.start_ns = args.at("start_ns").as_uint();
    s.end_ns = args.at("end_ns").as_uint();
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace perfbench
