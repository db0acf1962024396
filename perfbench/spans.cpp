#include "spans.h"

#include <cinttypes>
#include <cstdio>

namespace perfbench {

int32_t SpanRecorder::begin(const char* name, uint32_t update, Track track) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.update = update;
  s.track = track;
  s.parent = open_.empty() ? -1 : open_.back();
  int32_t index = static_cast<int32_t>(spans_.size());
  spans_.push_back(s);
  open_.push_back(index);
  spans_.back().startNs = nowNs();
  return index;
}

void SpanRecorder::end(int32_t index) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].endNs = nowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

bool SpanRecorder::writeChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uint64_t base = spans_.empty() ? 0 : spans_.front().startNs;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  std::fputs(
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
      "\"args\":{\"name\":\"critical path\"}},\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":2,"
      "\"args\":{\"name\":\"shadow (off the critical path)\"}}",
      f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Chrome trace timestamps are microseconds; three decimals keep ns.
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%" PRId32 ",\"update\":%" PRIu32
                 ",\"critical\":%s}}",
                 s.name, static_cast<unsigned>(s.track),
                 static_cast<double>(s.startNs - base) / 1e3,
                 static_cast<double>(s.endNs - s.startNs) / 1e3, i, s.parent,
                 s.update, s.track == Track::kCritical ? "true" : "false");
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
