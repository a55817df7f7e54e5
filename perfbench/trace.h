#pragma once

// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded by the benchmark around its own calls into each layer's
// public functions; nothing inside the program is instrumented. Every span
// has a layer, a start and end on the steady clock, the index of the span
// that was open when it began (its parent), and the id of the engine step,
// fleet round or storm round it belongs to. Self time — a span's duration
// minus the part its child spans cover — is accumulated per layer as spans
// close, so the per-layer numbers never depend on how many spans fit in the
// dump buffer.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace incbench {

enum class Layer : uint8_t {
  kBench,  // the benchmark's own loop: root span of every step/round
  kOwner,
  kBegin,
  kSort,
  kFinish,
  kQuery,
  kCkpt,
  kNetSend,
  kNetPoll,
  kNetChannel,
  kFleet,
  kCount,
};

inline const char* LayerName(Layer l) {
  static const char* const kNames[] = {
      "bench",          "core.owner",  "core.begin",  "oblivious.sort",
      "core.finish",    "relational.query", "storage.ckpt", "net.send",
      "net.poll",       "net.channel", "core.fleet"};
  return kNames[static_cast<size_t>(l)];
}

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  static constexpr uint32_t kNoParent = UINT32_MAX;

  explicit Tracer(size_t max_kept_spans) : max_kept_(max_kept_spans) {
    // Reserved up front so recording never reallocates mid-run.
    spans_.reserve(max_kept_spans);
  }

  /// Starts a new step/round group; spans opened until the next call share
  /// its id.
  void NewGroup() { ++group_; }

  void Begin(Layer layer) {
    Open o;
    o.layer = layer;
    o.start = NowNs();
    o.parent = open_.empty() ? kNoParent : open_.back().index;
    o.index = next_index_++;
    open_.push_back(o);
  }

  void End() {
    const int64_t end = NowNs();
    const Open o = open_.back();
    open_.pop_back();
    const int64_t dur = end - o.start;
    const size_t l = static_cast<size_t>(o.layer);
    self_ns_[l] += dur - o.child_ns;
    if (!open_.empty()) open_.back().child_ns += dur;
    if (spans_.size() < max_kept_) {
      spans_.push_back(Span{o.index, o.parent, group_, o.layer, o.start, end});
    } else {
      ++dropped_;
    }
  }

  int64_t self_ns(Layer l) const { return self_ns_[static_cast<size_t>(l)]; }
  uint64_t dropped() const { return dropped_; }

  /// Writes the kept spans as tab-separated text: one header line, then
  /// `index parent group layer start_ns end_ns` per span (parent -1 = root).
  bool Dump(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "index\tparent\tgroup\tlayer\tstart_ns\tend_ns\n");
    for (const Span& s : spans_) {
      std::fprintf(f, "%u\t%lld\t%llu\t%s\t%lld\t%lld\n", s.index,
                   s.parent == kNoParent ? -1LL
                                         : static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.group),
                   LayerName(s.layer), static_cast<long long>(s.start),
                   static_cast<long long>(s.end));
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Open {
    Layer layer = Layer::kBench;
    uint32_t index = 0;
    uint32_t parent = kNoParent;
    int64_t start = 0;
    int64_t child_ns = 0;
  };
  struct Span {
    uint32_t index;
    uint32_t parent;
    uint64_t group;
    Layer layer;
    int64_t start;
    int64_t end;
  };

  size_t max_kept_;
  std::vector<Open> open_;
  std::vector<Span> spans_;
  uint32_t next_index_ = 0;
  uint64_t group_ = 0;
  uint64_t dropped_ = 0;
  int64_t self_ns_[static_cast<size_t>(Layer::kCount)] = {};
};

/// Scoped span; a null tracer records nothing (the untraced run).
class SpanScope {
 public:
  SpanScope(Tracer* tracer, Layer layer) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->Begin(layer);
  }
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->End();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace incbench
