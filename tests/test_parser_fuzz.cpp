// Seeded mutation fuzzing of the two parsers that read untrusted bytes:
// the plan cache's JSON (plan_from_json, then lint_plan, as a cold start
// runs them) and the .qnn network container (load_network). Every mutant
// — bit flips, truncation, a duplicated span, an inflated digit run —
// must either parse or be refused with qnn::Error: never crash, never
// throw anything else, never trip a sanitizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "core/rng.h"
#include "models/zoo.h"
#include "nn/serialize.h"
#include "plan/compiled_plan.h"
#include "plan/json.h"
#include "verify/plan_check.h"

// Undefined behaviour a mutant provokes fails the run instead of printing
// a report and going on.
extern "C" const char* __ubsan_default_options() {
  return "halt_on_error=1:print_stacktrace=1";
}

namespace qnn {
namespace {

constexpr int kMutants = 1000;

/// One seeded mutation of `s`; `kind` names it for a failure message.
std::string mutate(std::string s, Rng& rng, std::string& kind) {
  const auto below = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.next_below(std::max<std::size_t>(n, 1)));
  };
  switch (rng.next_below(4)) {
    case 0: {
      kind = "bit flips";
      for (std::size_t f = 0, n = 1 + below(4); f < n && !s.empty(); ++f) {
        s[below(s.size())] ^= static_cast<char>(1 << below(8));
      }
      break;
    }
    case 1:
      kind = "truncation";
      s.resize(below(s.size()));
      break;
    case 2: {
      kind = "span duplication";
      const std::size_t from = below(s.size());
      const std::size_t len =
          1 + below(std::min<std::size_t>(64, s.size() - from));
      s.insert(below(s.size() + 1), s.substr(from, len));
      break;
    }
    default: {
      // The first digit run at or after a random offset (wrapping) grows
      // by up to 24 digits, or by 320 — past any double's range.
      kind = "digit-run inflation";
      const auto digit = [](char c) {
        return std::isdigit(static_cast<unsigned char>(c)) != 0;
      };
      const auto from = static_cast<std::ptrdiff_t>(below(s.size()));
      auto at = std::find_if(s.begin() + from, s.end(), digit);
      if (at == s.end()) at = std::find_if(s.begin(), s.end(), digit);
      if (at == s.end()) break;
      const std::size_t grow = rng.next_below(8) == 0 ? 320 : 1 + below(24);
      std::string digits;
      for (std::size_t d = 0; d < grow; ++d) {
        digits += static_cast<char>('0' + rng.next_below(10));
      }
      s.insert(static_cast<std::size_t>(at - s.begin()), digits);
      break;
    }
  }
  return s;
}

/// Run `parse` on kMutants mutants of `corpus`: each must parse or throw
/// Error. Both outcomes must occur, or the mutator is not exercising the
/// parser.
template <typename Parse>
void fuzz(const std::string& corpus, std::uint64_t seed, Parse parse) {
  Rng rng(seed);
  int parsed = 0;
  int refused = 0;
  for (int i = 0; i < kMutants; ++i) {
    std::string kind;
    const std::string mutant = mutate(corpus, rng, kind);
    try {
      parse(mutant);
      ++parsed;
    } catch (const Error&) {
      ++refused;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " (" << kind
                    << ") threw a non-Error exception: " << e.what();
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(refused, 0);
}

/// A fresh path in the temp directory, removed again on scope exit.
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(std::filesystem::temp_directory_path() / name) {}
  ~TempFile() { std::filesystem::remove(path_); }
  [[nodiscard]] std::string path() const { return path_.string(); }

  void write(const std::string& bytes) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  [[nodiscard]] std::string read() const {
    std::ifstream in(path_, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), {}};
  }

 private:
  std::filesystem::path path_;
};

TEST(ParserFuzz, MutatedPlansParseAndLintOrThrowError) {
  std::uint64_t seed = 0x5eed01;
  for (const NetworkSpec& spec :
       {models::tiny(12, 4, 2), models::resnet18(32, 10, 2)}) {
    SCOPED_TRACE(spec.name);
    const Pipeline pipeline = expand(spec);
    const std::string corpus = to_json(compile_plan(pipeline));
    fuzz(corpus, seed++, [&](const std::string& text) {
      Report report;
      lint_plan(pipeline, plan_from_json(text), report);
    });
  }
}

TEST(ParserFuzz, InflatedIntegerFieldsAreRefused) {
  // Digit-run inflation makes integer fields no int or size_t holds; a
  // cast of such a double is undefined behaviour, so every integer field
  // is range-checked: out of range, fractional or infinite is an Error.
  const Pipeline pipeline = expand(models::tiny(12, 4, 2));
  const std::string corpus = to_json(compile_plan(pipeline));
  ASSERT_NO_THROW((void)plan_from_json(corpus));
  const auto with_field = [&](const std::string& key, const char* value) {
    const std::size_t at = corpus.find("\"" + key + "\": ");
    EXPECT_NE(at, std::string::npos) << key;
    std::string text = corpus;
    text.replace(at, text.find(',', at) - at,
                 "\"" + key + "\": " + value);
    return text;
  };
  for (const char* bad : {"1e300", "-1e300", "2147483648", "-2147483649",
                          "2.5", "1e999"}) {
    EXPECT_THROW((void)plan_from_json(with_field("producer", bad)), Error)
        << bad;
  }
  for (const char* bad : {"-1", "18446744073709551616", "0.5"}) {
    EXPECT_THROW((void)plan_from_json(with_field("capacity", bad)), Error)
        << bad;
  }
}

TEST(ParserFuzz, MutatedNetworkFilesLoadOrThrowError) {
  const NetworkSpec spec = models::tiny(12, 4, 2);
  const Pipeline pipeline = expand(spec);
  const TempFile saved("qnn_fuzz_corpus.qnn");
  save_network(saved.path(), spec, NetworkParams::random(pipeline, 3));
  const std::string corpus = saved.read();
  ASSERT_FALSE(corpus.empty());
  const TempFile mutant("qnn_fuzz_mutant.qnn");
  fuzz(corpus, 0x5eed02, [&](const std::string& bytes) {
    mutant.write(bytes);
    (void)load_network(mutant.path());
  });
}

}  // namespace
}  // namespace qnn
