// Allocation budget of the hot paths. The global operator new below counts
// heap allocations inside a measurement window, so these tests pin that:
//   * a passing require() allocates nothing, whatever its message parts;
//   * union-find unite/find allocates nothing after construction;
//   * read_edge_list's allocation count does not grow with the line count
//     beyond the amortised growth of its edge vectors.
// A failing require() still throws kcc::Error with the parts concatenated
// exactly as std::to_string and string concatenation would.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <sstream>
#include <string>
#include <string_view>

#include "common/error.h"
#include "common/union_find.h"
#include "io/edge_list.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

}  // namespace

// Not inlined: GCC would otherwise see the malloc() and free() inside and
// pair them with new/delete expressions, warning (-Wmismatched-new-delete)
// about a mismatch that this replacement pair makes correct.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace kcc {
namespace {

/// Heap allocations made by `fn`.
template <typename Fn>
std::size_t allocations_in(Fn&& fn) {
  g_allocations.store(0);
  g_counting.store(true);
  fn();
  g_counting.store(false);
  return g_allocations.load();
}

TEST(HotPathAlloc, CounterSeesAllocations) {
  // Guards the other tests against a counter that never fires.
  const std::size_t n = allocations_in([] {
    std::string s(100, 'x');
    EXPECT_EQ(s.size(), 100u);
  });
  EXPECT_GE(n, 1u);
}

TEST(HotPathAlloc, PassingRequireAllocatesNothing) {
  const std::string owned(64, 'p');
  const std::string_view view(owned);
  std::size_t line_no = 0;
  const std::size_t n = allocations_in([&] {
    for (line_no = 0; line_no < 10000; ++line_no) {
      require(line_no < 10000, "read_edge_list: a message well past the ",
              "small-string buffer on line ", line_no, ": '", owned, "' / '",
              view, "'");
    }
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(line_no, 10000u);
}

TEST(HotPathAlloc, FailingRequireConcatenatesPartsLikeToString) {
  try {
    require(false, "text ", std::string("owned "), std::string_view("view "),
            0, -7, " ", std::numeric_limits<std::int64_t>::min(), " ",
            std::numeric_limits<std::uint64_t>::max(), " ",
            static_cast<unsigned char>(200), " ", std::size_t{42});
    FAIL() << "require(false, ...) returned";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(),
                 ("text owned view 0-7 " +
                  std::to_string(std::numeric_limits<std::int64_t>::min()) +
                  " 18446744073709551615 200 42")
                     .c_str());
  }
}

TEST(HotPathAlloc, UnionFindUniteAndFindAllocateNothing) {
  constexpr std::uint32_t kElements = 1u << 16;
  UnionFind uf(kElements);
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  const auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<std::uint32_t>(state % kElements);
  };
  std::size_t merged = 0;
  std::uint64_t root_sum = 0;
  const std::size_t n = allocations_in([&] {
    for (int i = 0; i < 1000000; ++i) {
      if (uf.unite(next(), next())) ++merged;
      root_sum += uf.find(next());
    }
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(uf.set_count(), kElements - merged);
  EXPECT_GT(root_sum, 0u);
}

/// An edge list of `lines` edges on a ring of 10-digit labels, with a
/// comment and a blank line every 100 lines.
std::string ring_edge_list(std::size_t lines) {
  std::ostringstream out;
  for (std::size_t i = 0; i < lines; ++i) {
    if (i % 100 == 0) out << "# block " << i / 100 << "\n\n";
    out << 4000000000ull + i << '\t' << 4000000000ull + (i + 1) % lines
        << "  # ring\n";
  }
  return out.str();
}

std::size_t parse_allocations(const std::string& text) {
  std::istringstream in(text);
  std::size_t edges = 0;
  const std::size_t n = allocations_in([&] {
    const LabeledGraph g = read_edge_list(in);
    edges = g.graph.num_edges();
  });
  EXPECT_GT(edges, 0u);
  return n;
}

TEST(HotPathAlloc, EdgeListParseAllocationsDoNotGrowWithLines) {
  constexpr std::size_t kLines = 20000;
  const std::size_t at_n = parse_allocations(ring_edge_list(kLines));
  const std::size_t at_2n = parse_allocations(ring_edge_list(2 * kLines));
  // Doubling the input adds one growth step to each of the parser's
  // vectors; a per-line allocation would add kLines.
  EXPECT_LE(at_2n, at_n + 8) << "N lines: " << at_n << ", 2N: " << at_2n;
}

}  // namespace
}  // namespace kcc
