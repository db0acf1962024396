#ifndef FLAY_PERFBENCH_SPANS_H
#define FLAY_PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (std::chrono::steady_clock).
inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Trace tracks: the update's critical path, and shadow calls timed off it.
enum class Track : uint8_t { kCritical = 1, kShadow = 2 };

struct Span {
  const char* name = nullptr;  ///< string literal
  uint64_t startNs = 0;
  uint64_t endNs = 0;
  int32_t parent = -1;  ///< index into the recorder's spans, -1 for a root
  uint32_t update = 0;  ///< id of the update this span belongs to
  Track track = Track::kCritical;
};

/// In-memory span recorder for the traced run. Spans nest through an open
/// stack (single-threaded by construction) and are written once, at exit, as
/// Chrome trace-event JSON ("ph":"X"), which Perfetto opens. A disabled
/// recorder records nothing and costs one branch per call.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void setEnabled(bool enabled) { enabled_ = enabled; }
  /// Opens a span under the innermost open one; returns its index or -1.
  int32_t begin(const char* name, uint32_t update,
                Track track = Track::kCritical);
  void end(int32_t index);

  const std::vector<Span>& spans() const { return spans_; }
  /// Writes every span; false if the file cannot be written.
  bool writeChromeTrace(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name, uint32_t update,
             Track track = Track::kCritical)
      : rec_(rec), index_(rec.begin(name, update, track)) {}
  ~ScopedSpan() { rec_.end(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  int32_t index_;
};

}  // namespace perfbench

#endif  // FLAY_PERFBENCH_SPANS_H
