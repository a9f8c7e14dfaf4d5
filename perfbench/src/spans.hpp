#pragma once
// In-memory spans recorded by the traced run around calls into each
// layer (from outside the program), written once at exit as a
// Chrome-trace document.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on a monotonic clock (the span time base).
[[nodiscard]] std::uint64_t now_ns();

struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  /// One id per op: every span an op causes carries it.
  std::uint64_t op = 0;
  /// Name of the causing span ("" for a root).
  const char* parent = "";
  /// Timeline row (one per connection, or per measured layer).
  std::uint32_t row = 0;
};

class SpanLog {
 public:
  /// Spans kept at most (later ones are dropped and counted), which
  /// bounds the trace file to some tens of MB.
  static constexpr std::size_t kMaxSpans = 200'000;

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  void add(const Span& span) {
    if (!enabled_) {
      return;
    }
    if (spans_.size() < kMaxSpans) {
      spans_.push_back(span);
    } else {
      ++dropped_;
    }
  }
  [[nodiscard]] std::size_t dropped() const { return dropped_; }
  /// Appends every span of `other` (past the cap: it is already bounded).
  void merge(const SpanLog& other) {
    spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
    dropped_ += other.dropped_;
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span name: its duration minus the part its
  /// children (same op, parent == name) cover, summed per name.
  struct SelfTime {
    std::string name;
    std::uint64_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
  };
  [[nodiscard]] std::vector<SelfTime> self_times() const;

  /// Writes the Chrome-trace JSON to `path`, re-reads it, and validates
  /// it with the daemon's own trace validator.  Returns "" on success,
  /// else what failed.
  [[nodiscard]] std::string write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::size_t dropped_ = 0;
};

}  // namespace perfbench
