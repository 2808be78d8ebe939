// Tests of perfbench's own helpers: the tail-percentile rule, the hex-float
// digest, span self time, seed derivation and the result line. Plain
// asserts-that-stay-on, so the benchmark build needs no test framework:
//
//   cmake --build .bench_build/perfbench --target perfbench_tests
//   .bench_build/perfbench/perfbench_tests

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.h"

namespace {

using namespace perfbench;

int g_failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::printf("FAIL line %d: %s\n", line, what);
    ++g_failures;
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

std::vector<double> ramp(std::size_t n) {
  std::vector<double> xs;
  for (std::size_t i = 0; i < n; ++i) xs.push_back(static_cast<double>(i + 1));
  return xs;
}

void test_quantile() {
  CHECK(quantile({3.0, 1.0, 2.0}, 0.5) == 2.0);
  CHECK(quantile({1.0, 2.0, 3.0, 4.0}, 0.5) == 2.5);
  CHECK(quantile({5.0}, 0.9) == 5.0);
  CHECK(quantile(ramp(11), 0.9) == 10.0);
  CHECK(quantile(ramp(11), 0.0) == 1.0);
  CHECK(quantile(ramp(11), 1.0) == 11.0);
  bool threw = false;
  try {
    quantile({}, 0.5);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);
}

void test_tail_rule() {
  // p90 needs ten samples beyond it: 100 samples is the first count that
  // qualifies, 99 does not.
  CHECK(samples_beyond(100, 0.9) == 10);
  CHECK(samples_beyond(99, 0.9) == 9);
  CHECK(samples_beyond(109, 0.9) == 10);
  CHECK(samples_beyond(110, 0.9) == 11);
  CHECK(min_samples_for_tail(0.9) == 100);
  CHECK(min_samples_for_tail(0.99) == 1000);
  CHECK(min_samples_for_tail(0.5) == 20);
  CHECK(!tail_quantile(ramp(99), 0.9).has_value());
  CHECK(!tail_quantile({}, 0.9).has_value());
  const auto p90 = tail_quantile(ramp(100), 0.9);
  CHECK(p90.has_value() && *p90 == quantile(ramp(100), 0.9));
  CHECK(tail_quantile(ramp(25), 0.5, 10).has_value());
}

void test_digest() {
  // Equal inputs hash equal; a one-ulp change, a reordering or a type
  // change does not.
  const double x = 0.1 + 0.2;
  Digest a, b, c, d, e;
  a.add(x).add(std::uint64_t{7}).add("Ours");
  b.add(x).add(std::uint64_t{7}).add("Ours");
  c.add(std::nextafter(x, 1.0)).add(std::uint64_t{7}).add("Ours");
  d.add(std::uint64_t{7}).add(x).add("Ours");
  e.add(x).add(std::int64_t{7}).add("Ours");
  CHECK(a.value() == b.value());
  CHECK(a.value() != c.value());
  CHECK(a.value() != d.value());
  CHECK(a.hex().size() == 16);
  // Signed and unsigned 7 render alike: the digest is over values.
  CHECK(a.value() == e.value());
  // Negative zero is a different bit pattern and a different hex-float.
  Digest zero, neg_zero;
  zero.add(0.0);
  neg_zero.add(-0.0);
  CHECK(zero.value() != neg_zero.value());
  // Field boundaries are part of the rendering.
  Digest ab, a_b;
  ab.add("ab");
  a_b.add("a").add("b");
  CHECK(ab.value() != a_b.value());
}

void test_self_time() {
  // parent [0, 100) with children [10, 30) and [20, 50) (overlapping) and a
  // grandchild [12, 18) inside the first child.
  std::vector<SpanRecord> spans = {
      {"parent", 0, 100, -1, 0},
      {"child_a", 10, 30, 0, 0},
      {"child_b", 20, 50, 0, 0},
      {"grandchild", 12, 18, 1, 0},
      {"other_root", 200, 260, -1, 1},
  };
  const std::vector<std::int64_t> self = self_times(spans);
  CHECK(self[0] == 100 - 40);  // children cover [10, 50) once
  CHECK(self[1] == 20 - 6);
  CHECK(self[2] == 30);
  CHECK(self[3] == 6);
  CHECK(self[4] == 60);

  // A child that outlives its parent counts only inside the parent.
  std::vector<SpanRecord> clipped = {{"p", 0, 10, -1, 0}, {"c", 5, 20, 0, 0}};
  CHECK(self_times(clipped)[0] == 5);

  // SpanLog nests through its open-span stack.
  SpanLog log;
  {
    ScopedSpan outer(&log, "outer", 3);
    ScopedSpan inner(&log, "inner", 3);
  }
  CHECK(log.spans().size() == 2);
  CHECK(log.spans()[1].parent == 0);
  CHECK(log.spans()[0].unit == 3);
  CHECK(log.spans()[0].end_ns >= log.spans()[1].end_ns);
  CHECK(log.self_times("outer").size() == 1);
  CHECK(log.durations("inner").size() == 1);
  ScopedSpan off(nullptr, "free", 0);  // a null log records nothing
  CHECK(log.spans().size() == 2);
}

void test_seeds() {
  // Adjacent workload seeds give unrelated streams: the raw difference of
  // seeds 1 and 2 would vanish under a >> 11, the mixed one must not.
  const std::uint64_t s1 = derive_seed(1, 2);
  const std::uint64_t s2 = derive_seed(2, 2);
  CHECK(s1 != s2);
  CHECK((s1 >> 11) != (s2 >> 11));
  CHECK(derive_seed(1, 2) == s1);      // pure
  CHECK(derive_seed(1, 3) != s1);      // lanes differ
  int differing_bits = 0;
  for (std::uint64_t x = s1 ^ s2; x != 0; x &= x - 1) ++differing_bits;
  CHECK(differing_bits > 16);
  const double u = seeded_uniform(s1, 2.0, 3.0);
  CHECK(u >= 2.0 && u < 3.0);
  CHECK(splitmix64(0) != 0);
}

void test_summary_and_result() {
  std::vector<UnitSample> samples;
  for (std::size_t i = 0; i < 100; ++i) {
    samples.push_back({static_cast<double>(i + 1), 10.0, 1000.0, i != 3});
  }
  const LoopSummary s = summarize(samples);
  CHECK(s.units == 100);
  CHECK(s.failed == 1);
  CHECK(s.unit_ms_p90.has_value());
  CHECK(s.unit_ms_p50 == 50.5);
  CHECK(std::fabs(s.success_ratio - 0.99) < 1e-12);
  // per-unit ns/event = ms * 1e6 / 1000 events; its median is 50.5e3.
  CHECK(s.ns_per_event == 50.5e3);

  const std::string line =
      result_json(true, 3, 0, {{"a_ms", 1.25, "ms"}, {"b", 1.0 / 3.0, "1/s"}});
  CHECK(line ==
        "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
        "{\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": "
        "0.33333333333333331, \"unit\": \"1/s\"}}}");
}

}  // namespace

int main() {
  test_quantile();
  test_tail_rule();
  test_digest();
  test_self_time();
  test_seeds();
  test_summary_and_result();
  if (g_failures == 0) std::printf("perfbench_tests: all checks passed\n");
  return g_failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
