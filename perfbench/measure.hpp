#pragma once
// The benchmark's own arithmetic: percentiles that say whether the sample
// supports them, medians over blocks of passes, open-loop latency, failure
// accounting, and the in-memory span log whose self times give the
// per-layer numbers. Header-only, so the self-tests (selftest.cpp) exercise
// exactly the code the benchmark runs.
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/stats.hpp"

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// A reported percentile must have at least this many samples above it.
inline constexpr std::size_t kMinTail = 10;

struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;  ///< samples ranked above the reported one
  bool supported = false;  ///< beyond >= kMinTail
};

/// Nearest-rank percentile of `values` (util::percentile_sorted, the rule
/// the repo's other benches use), which is sorted in place. p in (0, 1].
/// `beyond` counts the samples strictly greater than the value.
inline Percentile percentile(std::vector<double>& values, double p) {
  Percentile out;
  out.samples = values.size();
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  out.value = rlsched::util::percentile_sorted(values, p);
  out.beyond = static_cast<std::size_t>(
      values.end() - std::upper_bound(values.begin(), values.end(), out.value));
  out.supported = out.beyond >= kMinTail;
  return out;
}

inline double median(std::vector<double> values) {
  return percentile(values, 0.5).value;
}

/// A run's passes cut, in order, into blocks of at least `min_passes`
/// passes holding at least `min_samples` samples; a short remainder joins
/// the last block. Returns each block's end (one past its last pass).
/// Every timing a run reports is the median over these blocks: robust to
/// phases of host noise that cover fewer than half of the blocks, yet
/// blocks are never chosen by their speed, so a stall that recurs once in
/// every `min_passes` passes lands in every block and reaches the figure.
inline std::vector<std::size_t> pass_blocks(
    const std::vector<std::size_t>& samples, std::size_t min_passes,
    std::size_t min_samples) {
  std::vector<std::size_t> ends;
  std::size_t in_block = 0, held = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    ++in_block;
    held += samples[i];
    if (in_block >= min_passes && held >= min_samples) {
      ends.push_back(i + 1);
      in_block = held = 0;
    }
  }
  if (in_block > 0) {
    if (ends.empty()) ends.push_back(samples.size());
    else ends.back() = samples.size();
  }
  return ends;
}

struct BlockPercentile {
  double value = 0.0;
  std::size_t samples = 0;     ///< over all blocks
  std::size_t min_beyond = 0;  ///< fewest samples beyond p in any block
  bool supported = false;      ///< every block has kMinTail beyond p
};

/// The median over blocks (`ends`, from pass_blocks) of each block's
/// percentile p of the latencies its passes hold.
inline BlockPercentile block_percentile(
    const std::vector<std::vector<double>>& passes,
    const std::vector<std::size_t>& ends, double p) {
  BlockPercentile out;
  out.supported = !ends.empty();
  out.min_beyond = ends.empty() ? 0 : SIZE_MAX;
  std::vector<double> values;
  std::size_t begin = 0;
  for (const std::size_t end : ends) {
    std::vector<double> block;
    for (std::size_t i = begin; i < end; ++i) {
      block.insert(block.end(), passes[i].begin(), passes[i].end());
    }
    begin = end;
    const Percentile q = percentile(block, p);
    values.push_back(q.value);
    out.samples += q.samples;
    out.min_beyond = std::min(out.min_beyond, q.beyond);
    out.supported = out.supported && q.supported;
  }
  out.value = median(values);
  return out;
}

/// The median over blocks of sum(work) / sum(seconds): a rate that no
/// selection by speed has touched.
inline double block_rate(const std::vector<double>& work,
                         const std::vector<double>& seconds,
                         const std::vector<std::size_t>& ends) {
  std::vector<double> rates;
  std::size_t begin = 0;
  for (const std::size_t end : ends) {
    double w = 0.0, t = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      w += work[i];
      t += seconds[i];
    }
    begin = end;
    rates.push_back(w / t);
  }
  return median(rates);
}

/// Open-loop latency of one request: from the time it was DUE to be sent,
/// not the time the generator got round to sending it, so a stall delays
/// every request queued behind it in the figures too.
inline double open_loop_latency(double due_s, double reply_s) {
  return reply_s - due_s;
}

/// What became of the requests a run attempted. Anything not answered OK
/// counts as failed: non-OK completions (shed, expired, cancelled),
/// refusals at submit, transport errors, and requests never answered.
struct Outcomes {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;     ///< answered with a non-OK status
  std::uint64_t refused = 0;    ///< rejected when submitted
  std::uint64_t transport = 0;  ///< send or receive error

  std::uint64_t failures() const { return attempted - ok; }
  double failed_ratio() const {
    return attempted == 0 ? 1.0
                          : static_cast<double>(failures()) /
                                static_cast<double>(attempted);
  }
};

/// One traced interval. `parent` indexes the same SpanLog (-1 = root);
/// spans of one request share `request`.
struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint64_t request = 0;
};

/// Spans of one thread, kept in memory until the run ends. When off,
/// open() returns -1 and close(-1) does nothing, so untraced code pays one
/// branch per boundary.
class SpanLog {
 public:
  explicit SpanLog(bool on = false) : on_(on) {}

  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }

  std::int32_t open(const char* name, std::uint64_t request = 0,
                    std::int32_t parent = -1) {
    if (!on_) return -1;
    spans_.push_back(Span{name, now_ns(), 0, parent, request});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void close(std::int32_t index) {
    if (index >= 0) spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  }
  /// A span whose bounds were measured elsewhere (e.g. reported by the
  /// program after the fact).
  std::int32_t add(const char* name, std::uint64_t start_ns,
                   std::uint64_t end_ns, std::int32_t parent = -1,
                   std::uint64_t request = 0) {
    if (!on_) return -1;
    spans_.push_back(Span{name, start_ns, end_ns, parent, request});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  std::vector<Span> spans_;
};

/// RAII span: open at construction, close at scope exit.
class Scope {
 public:
  Scope(SpanLog& log, const char* name, std::uint64_t request = 0,
        std::int32_t parent = -1)
      : log_(log), index_(log.open(name, request, parent)) {}
  ~Scope() { log_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  std::int32_t index_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its children. Children may overlap each other or stick out
/// of the parent; only the union of their intervals inside the parent is
/// subtracted.
inline std::vector<std::uint64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const std::uint64_t lo = std::max(s.start_ns, p.start_ns);
    const std::uint64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) kids[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<std::uint64_t> out(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::uint64_t duration =
        spans[i].end_ns > spans[i].start_ns
            ? spans[i].end_ns - spans[i].start_ns
            : 0;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0;
    std::uint64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    out[i] = duration - std::min(duration, covered);
  }
  return out;
}

/// Self times of one span name across logs.
struct LayerTimes {
  std::vector<double> self_ns;  ///< one entry per span
  double total_ns() const {
    double t = 0.0;
    for (double v : self_ns) t += v;
    return t;
  }
  double count() const { return static_cast<double>(self_ns.size()); }
};

inline std::map<std::string, LayerTimes> layer_times(
    const std::vector<const SpanLog*>& logs) {
  std::map<std::string, LayerTimes> out;
  for (const SpanLog* log : logs) {
    const auto self = self_times(log->spans());
    for (std::size_t i = 0; i < self.size(); ++i) {
      out[log->spans()[i].name].self_ns.push_back(
          static_cast<double>(self[i]));
    }
  }
  return out;
}

/// Write every span as CSV: log,index,name,start_ns,end_ns,parent,request.
inline bool dump_spans(const std::string& path,
                       const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "log,index,name,start_ns,end_ns,parent,request\n");
  for (std::size_t l = 0; l < logs.size(); ++l) {
    const auto& spans = logs[l]->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%zu,%zu,%s,%llu,%llu,%d,%llu\n", l, i, s.name,
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns), s.parent,
                   static_cast<unsigned long long>(s.request));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
