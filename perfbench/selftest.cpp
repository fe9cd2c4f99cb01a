// Self-tests for the benchmark's arithmetic (measure.hpp). perfbench/run.py
// runs them before every benchmark run; a failure stops the run.
#include <cmath>
#include <cstdio>
#include <vector>

#include "measure.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

std::vector<double> iota(std::size_t n) {
  std::vector<double> v;
  // Descending, so percentile() has to sort.
  for (std::size_t i = n; i > 0; --i) v.push_back(static_cast<double>(i));
  return v;
}

void percentile_needs_ten_samples_beyond() {
  auto v = iota(1000);
  const auto p99 = perfbench::percentile(v, 0.99);
  expect(p99.value == 990.0, "p99 of 1..1000 is the 990th sample");
  expect(p99.beyond == 10, "p99 of 1000 samples leaves 10 beyond");
  expect(p99.supported, "p99 of 1000 samples is supported");

  auto w = iota(999);
  const auto short_p99 = perfbench::percentile(w, 0.99);
  expect(short_p99.beyond == 9, "p99 of 999 samples leaves 9 beyond");
  expect(!short_p99.supported, "p99 of 999 samples is not supported");

  auto x = iota(100);
  const auto p50 = perfbench::percentile(x, 0.5);
  expect(p50.value == 50.0 && p50.supported, "p50 of 1..100 is 50");

  // Ties with the reported sample are not beyond it.
  std::vector<double> ties(995, 1.0);
  for (int i = 0; i < 10; ++i) ties.push_back(2.0);
  const auto tied = perfbench::percentile(ties, 0.99);
  expect(tied.value == 1.0 && tied.beyond == 10 && tied.supported,
         "only samples greater than p99 count as beyond it");
  ties.back() = 1.0;
  expect(!perfbench::percentile(ties, 0.99).supported,
         "a tie at p99 does not count towards its support");

  std::vector<double> empty;
  expect(!perfbench::percentile(empty, 0.5).supported,
         "an empty sample supports nothing");
}

/// `n` passes of `each` distinct latencies just above `value`.
std::vector<std::vector<double>> passes_of(std::size_t n, std::size_t each,
                                           double value) {
  std::vector<std::vector<double>> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < each; ++j) {
      out[i].push_back(value + static_cast<double>(i * each + j) * 1e-9);
    }
  }
  return out;
}

std::vector<std::size_t> sizes(const std::vector<std::vector<double>>& v) {
  std::vector<std::size_t> out;
  for (const auto& pass : v) out.push_back(pass.size());
  return out;
}

void blocks_keep_stalls_and_drop_phases() {
  // Blocks grow until they hold enough samples; a remainder joins the last.
  const auto ends = perfbench::pass_blocks(sizes(passes_of(25, 100, 1.0)),
                                           4, 1000);
  expect(ends == std::vector<std::size_t>({10, 25}),
         "blocks of 10 passes of 100; the last 5 passes join the second");
  expect(perfbench::pass_blocks({100, 100}, 4, 1000) ==
             std::vector<std::size_t>({2}),
         "a run short of one block is one block");
  expect(perfbench::pass_blocks({}, 4, 1000).empty(), "no passes, no block");

  // A stall in one pass of every four lands in every block of four passes.
  auto stalled = passes_of(8, 250, 1.0);
  for (const std::size_t i : {3, 7}) stalled[i] = passes_of(1, 250, 100.0)[0];
  const auto blocks = perfbench::pass_blocks(sizes(stalled), 4, 1000);
  const auto p99 = perfbench::block_percentile(stalled, blocks, 0.99);
  expect(blocks.size() == 2 && p99.value >= 100.0,
         "a stall in one pass of every four reaches p99");
  expect(p99.supported && p99.samples == 2000 && p99.min_beyond == 10,
         "each block of 1000 samples supports p99");
  const auto short_run = passes_of(3, 100, 1.0);
  expect(!perfbench::block_percentile(
              short_run, perfbench::pass_blocks(sizes(short_run), 4, 1000),
              0.99)
              .supported,
         "a block of 300 samples does not support p99");

  // A slow phase of the host over one block of three moves neither the
  // latency nor the rate.
  auto phased = passes_of(12, 250, 1.0);
  for (std::size_t i = 0; i < 4; ++i) phased[i] = passes_of(1, 250, 2.0)[0];
  const auto thirds = perfbench::pass_blocks(sizes(phased), 4, 1000);
  expect(thirds.size() == 3 &&
             perfbench::block_percentile(phased, thirds, 0.5).value < 1.1,
         "one slow block of three does not move the median latency");
  const std::vector<double> work(12, 10.0);
  std::vector<double> seconds(12, 1.0);
  for (std::size_t i = 0; i < 4; ++i) seconds[i] = 2.0;
  expect(perfbench::block_rate(work, seconds, thirds) == 10.0,
         "one slow block of three does not move the median rate");
  seconds.assign(12, 1.0);
  for (const std::size_t i : {3, 7, 11}) seconds[i] = 6.0;
  expect(perfbench::block_rate(work, seconds, thirds) == 40.0 / 9.0,
         "a stall in one pass of every four reaches the rate");
}

void open_loop_latency_counts_from_due_time() {
  // Due at 1.000 s; the generator stalled and sent at 1.005 s; the reply
  // came at 1.006 s. The request waited 6 ms, not 1 ms.
  const double due = 1.000, sent = 1.005, reply = 1.006;
  const double lat = perfbench::open_loop_latency(due, reply);
  expect(std::fabs(lat - 0.006) < 1e-12, "latency runs from the due time");
  expect(lat > reply - sent, "a late send does not shorten latency");
}

void failed_ratio_counts_refusals_and_transport_errors() {
  perfbench::Outcomes o;
  o.attempted = 100;
  o.ok = 90;
  o.failed = 4;     // answered non-OK
  o.refused = 3;    // rejected at submit
  o.transport = 2;  // lost to the socket
  // One more was never answered at all.
  expect(o.failures() == 10, "every request not answered OK is a failure");
  expect(std::fabs(o.failed_ratio() - 0.10) < 1e-12, "failed_ratio = 10%");

  perfbench::Outcomes refused_only;
  refused_only.attempted = 4;
  refused_only.refused = 4;
  expect(refused_only.failed_ratio() == 1.0, "refusals alone are failures");

  perfbench::Outcomes clean;
  clean.attempted = clean.ok = 7;
  expect(clean.failed_ratio() == 0.0, "no failures, ratio 0");
}

void self_time_subtracts_covered_children() {
  perfbench::SpanLog log(true);
  const auto root = log.add("root", 0, 100);
  log.add("a", 10, 30, root);  // [10, 30)
  log.add("b", 20, 40, root);  // overlaps a: union [10, 40)
  log.add("c", 90, 120, root);  // sticks out: only [90, 100) counts
  const auto leaf_parent = log.add("d", 50, 60, root);
  log.add("e", 52, 55, leaf_parent);
  const auto self = perfbench::self_times(log.spans());
  // root: 100 - (30 + 10 + 10) = 50
  expect(self[0] == 50, "root self time excludes the union of children");
  expect(self[1] == 20 && self[2] == 20, "leaves keep their duration");
  expect(self[3] == 30, "a child's own duration is not clipped");
  expect(self[4] == 7, "nested parent subtracts its child");
  expect(self[5] == 3, "nested leaf keeps its duration");

  perfbench::SpanLog off(false);
  expect(off.open("x") == -1 && off.spans().empty(),
         "a log that is off records nothing");
}

}  // namespace

int main() {
  percentile_needs_ten_samples_beyond();
  blocks_keep_stalls_and_drop_phases();
  open_loop_latency_counts_from_due_time();
  failed_ratio_counts_refusals_and_transport_errors();
  self_time_subtracts_covered_children();
  if (failures == 0) std::printf("perfbench selftest: all passed\n");
  return failures == 0 ? 0 : 1;
}
