#include "nn/serialize.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>

#include "models/zoo.h"
#include "nn/reference.h"
#include "test_util.h"
#include "train/qat.h"

namespace qnn {
namespace {

class TempFile {
 public:
  explicit TempFile(std::string path) : path_(std::move(path)) {}
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(Serialize, RoundTripPreservesInference) {
  const NetworkSpec spec = models::tiny(12, 4, 2);
  const Pipeline pipeline = expand(spec);
  const NetworkParams params = NetworkParams::random(pipeline, 9);
  const TempFile file("/tmp/qnn_roundtrip.qnn");
  save_network(file.path(), spec, params);

  const LoadedNetwork loaded = load_network(file.path());
  EXPECT_EQ(loaded.spec.name, spec.name);
  EXPECT_EQ(loaded.spec.input, spec.input);
  EXPECT_EQ(loaded.spec.act_bits, spec.act_bits);
  EXPECT_EQ(loaded.pipeline.size(), pipeline.size());

  const ReferenceExecutor original(pipeline, params);
  const ReferenceExecutor reloaded(loaded.pipeline, loaded.params);
  Rng rng(10);
  for (int i = 0; i < 5; ++i) {
    const IntTensor img = testutil::random_image(12, 12, 3, rng);
    EXPECT_EQ(reloaded.run(img), original.run(img)) << "image " << i;
  }
}

TEST(Serialize, RoundTripCoversEveryBlockKind) {
  NetworkSpec spec;
  spec.name = "all_blocks";
  spec.input = Shape{16, 16, 3};
  spec.act_bits = 3;
  spec.conv(8, 3, 1, 1);
  spec.max_pool(2, 2);
  spec.residual(8, 1);
  spec.residual(16, 2);
  spec.avg_pool_global();
  spec.dense(6, false);
  const Pipeline pipeline = expand(spec);
  const NetworkParams params = NetworkParams::random(pipeline, 11);
  const TempFile file("/tmp/qnn_allblocks.qnn");
  save_network(file.path(), spec, params);
  const LoadedNetwork loaded = load_network(file.path());
  ASSERT_EQ(loaded.spec.blocks.size(), spec.blocks.size());
  EXPECT_EQ(loaded.pipeline.output_shape(), pipeline.output_shape());
  Rng rng(12);
  const IntTensor img = testutil::random_image(16, 16, 3, rng);
  EXPECT_EQ(ReferenceExecutor(loaded.pipeline, loaded.params).run(img),
            ReferenceExecutor(pipeline, params).run(img));
}

TEST(Serialize, ThresholdsAreRefoldedOnLoad) {
  const NetworkSpec spec = models::tiny(12, 4, 2);
  const Pipeline pipeline = expand(spec);
  const NetworkParams params = NetworkParams::random(pipeline, 13);
  const TempFile file("/tmp/qnn_refold.qnn");
  save_network(file.path(), spec, params);
  const LoadedNetwork loaded = load_network(file.path());
  for (std::size_t i = 0; i < params.bnacts.size(); ++i) {
    const auto& a = params.bnacts[i].thresholds;
    const auto& b = loaded.params.bnacts[i].thresholds;
    ASSERT_EQ(a.channels(), b.channels());
    for (int c = 0; c < a.channels(); ++c) {
      EXPECT_EQ(a.at(c), b.at(c)) << "bank " << i << " channel " << c;
    }
  }
}

TEST(Serialize, TrainedModelSurvivesDisk) {
  const auto all = make_cluster_task(3, 8, 60, 12.0, 44);
  const auto [train, test] = split_dataset(all, 0.75);
  QatConfig cfg;
  cfg.epochs = 25;
  cfg.seed = 4;
  QatMlp mlp(train.dim, train.classes, cfg);
  mlp.fit(train);
  const auto [pipeline, params] = mlp.export_network();

  // Rebuild the spec the exporter used, persist, reload, compare logits.
  NetworkSpec spec;
  spec.name = "qat_mlp";
  spec.input = Shape{1, 1, train.dim};
  spec.act_bits = cfg.act_bits;
  for (int h : cfg.hidden) spec.dense(h);
  spec.dense(train.classes, false);

  const TempFile file("/tmp/qnn_trained.qnn");
  save_network(file.path(), spec, params);
  const LoadedNetwork loaded = load_network(file.path());
  const ReferenceExecutor a(pipeline, params);
  const ReferenceExecutor b(loaded.pipeline, loaded.params);
  for (int i = 0; i < 10; ++i) {
    const IntTensor& img = test.images[static_cast<std::size_t>(i)];
    EXPECT_EQ(a.run(img), b.run(img));
  }
}

TEST(Serialize, RejectsWrongMagic) {
  const TempFile file("/tmp/qnn_badmagic.qnn");
  std::ofstream out(file.path(), std::ios::binary);
  out << "NOPE and then some bytes";
  out.close();
  EXPECT_THROW((void)load_network(file.path()), Error);
}

TEST(Serialize, RejectsTruncatedFile) {
  const NetworkSpec spec = models::tiny(12, 4, 2);
  const Pipeline pipeline = expand(spec);
  const NetworkParams params = NetworkParams::random(pipeline, 14);
  const TempFile file("/tmp/qnn_trunc.qnn");
  save_network(file.path(), spec, params);
  // Chop the file at 60%.
  std::ifstream in(file.path(), std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(file.path(), std::ios::binary | std::ios::trunc);
  out.write(bytes.data(),
            static_cast<std::streamsize>(bytes.size() * 3 / 5));
  out.close();
  EXPECT_THROW((void)load_network(file.path()), Error);
}

TEST(Serialize, RejectsVersionMismatch) {
  const NetworkSpec spec = models::tiny(12, 4, 2);
  const Pipeline pipeline = expand(spec);
  const NetworkParams params = NetworkParams::random(pipeline, 15);
  const TempFile file("/tmp/qnn_version.qnn");
  save_network(file.path(), spec, params);
  // Bump the version field (bytes 4..7).
  std::fstream f(file.path(),
                 std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(4);
  const std::uint32_t bogus = 999;
  f.write(reinterpret_cast<const char*>(&bogus), sizeof bogus);
  f.close();
  EXPECT_THROW((void)load_network(file.path()), Error);
}

TEST(Serialize, RejectsCorruptFilterTailBits) {
  const NetworkSpec spec = models::tiny(12, 4, 2);
  const Pipeline pipeline = expand(spec);
  const NetworkParams params = NetworkParams::random(pipeline, 16);
  const TempFile file("/tmp/qnn_tail.qnn");
  save_network(file.path(), spec, params);
  // First conv filter is 3*3*3 = 27 bits: flip a bit beyond position 27
  // inside its first stored word. The word starts right after the spec;
  // easier: set the whole word to all-ones, which must trip the check.
  std::ifstream in(file.path(), std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  // Find the first conv bank: search for the filter shape triple (8,3,3)
  // written as little-endian i32s after the spec — then the words follow.
  const char needle[12] = {8, 0, 0, 0, 3, 0, 0, 0, 3, 0, 0, 0};
  const auto pos = bytes.find(std::string(needle, sizeof needle));
  ASSERT_NE(pos, std::string::npos);
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[pos + sizeof needle + i] = static_cast<char>(0xff);
  }
  std::ofstream out(file.path(), std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  EXPECT_THROW((void)load_network(file.path()), Error);
}

/// The bytes of a saved tiny network, and the offset of its first stored
/// BnAct bank (the BnAct section closes the file: a u32 bank count, then
/// per bank i32 channels, i32 bits, f64 range and 4 f32 per channel).
struct SavedTiny {
  std::string bytes;
  std::size_t first_bnact = 0;
};

SavedTiny save_tiny(const std::string& path, std::uint64_t seed) {
  const NetworkSpec spec = models::tiny(12, 4, 2);
  const Pipeline pipeline = expand(spec);
  const NetworkParams params = NetworkParams::random(pipeline, seed);
  save_network(path, spec, params);
  SavedTiny saved;
  std::ifstream in(path, std::ios::binary);
  saved.bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
  std::size_t section = 0;
  for (const BnActParams& b : params.bnacts) {
    section += 16 + 16 * static_cast<std::size_t>(b.bn.channels());
  }
  saved.first_bnact = saved.bytes.size() - section;
  return saved;
}

void overwrite(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

template <class T>
void poke(std::string& bytes, std::size_t at, T value) {
  std::memcpy(bytes.data() + at, &value, sizeof value);
}

// Bank sizes come off the file; each must be checked against its node
// before anything is allocated from it.
TEST(Serialize, RejectsInflatedConvBankBeforeAllocating) {
  const TempFile file("/tmp/qnn_inflated_conv.qnn");
  SavedTiny saved = save_tiny(file.path(), 17);
  const char needle[12] = {8, 0, 0, 0, 3, 0, 0, 0, 3, 0, 0, 0};
  const auto pos = saved.bytes.find(std::string(needle, sizeof needle));
  ASSERT_NE(pos, std::string::npos);
  poke<std::int32_t>(saved.bytes, pos, 1 << 30);  // out_c
  overwrite(file.path(), saved.bytes);
  EXPECT_THROW((void)load_network(file.path()), Error);
}

TEST(Serialize, RejectsInflatedBnActChannelsBeforeAllocating) {
  const TempFile file("/tmp/qnn_inflated_bn.qnn");
  SavedTiny saved = save_tiny(file.path(), 18);
  std::int32_t channels = 0;
  std::memcpy(&channels, saved.bytes.data() + saved.first_bnact,
              sizeof channels);
  ASSERT_EQ(channels, 8);  // tiny's first BnAct follows an 8-filter conv
  poke<std::int32_t>(saved.bytes, saved.first_bnact, 1 << 30);
  overwrite(file.path(), saved.bytes);
  EXPECT_THROW((void)load_network(file.path()), Error);
}

TEST(Serialize, RejectsParamsLargerThanTheFileBeforeAllocating) {
  // ~100 bytes whose spec declares a 1x1 conv with 2^28 filters, and whose
  // stored bank header agrees with it: only the file size can tell.
  const TempFile file("/tmp/qnn_huge_spec.qnn");
  std::string bytes = "QNNM";
  const auto put = [&bytes](std::int32_t v) {
    bytes.append(reinterpret_cast<const char*>(&v), sizeof v);
  };
  put(1);                  // format version
  put(4);                  // name length
  bytes += "huge";
  for (const int v : {1, 1, 3, 8, 2}) put(v);  // input h, w, c, bits; act
  put(1);                  // one block
  put(1);                  // conv
  for (const int v : {1 << 28, 1, 1, 0, 0}) put(v);  // out_c k stride pad bn
  put(1);                  // one conv bank
  for (const int v : {1 << 28, 1, 3}) put(v);  // its out_c, k, in_c
  ASSERT_LT(bytes.size(), 128u);
  overwrite(file.path(), bytes);
  EXPECT_THROW((void)load_network(file.path()), Error);

  // The exact section size still admits a real model, bit for bit.
  const NetworkSpec spec = models::resnet18(32, 10, 2);
  const Pipeline pipeline = expand(spec);
  const NetworkParams params = NetworkParams::random(pipeline, 21);
  save_network(file.path(), spec, params);
  const LoadedNetwork loaded = load_network(file.path());
  const ReferenceExecutor original(pipeline, params);
  const ReferenceExecutor reloaded(loaded.pipeline, loaded.params);
  Rng rng(22);
  const IntTensor img = testutil::random_codes(spec.input, spec.input_bits, rng);
  EXPECT_EQ(reloaded.run(img), original.run(img));
}

TEST(Serialize, RejectsNonFiniteBatchNormParameters) {
  const TempFile file("/tmp/qnn_nan_bn.qnn");
  const SavedTiny saved = save_tiny(file.path(), 19);
  // The first channel's gamma, mu, inv_sigma, beta follow the 16-byte
  // bank header.
  for (std::size_t field = 0; field < 4; ++field) {
    for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity()}) {
      std::string bytes = saved.bytes;
      poke<float>(bytes, saved.first_bnact + 16 + 4 * field, bad);
      overwrite(file.path(), bytes);
      EXPECT_THROW((void)load_network(file.path()), Error)
          << "field " << field << " value " << bad;
    }
  }
  // The untouched file still loads.
  overwrite(file.path(), saved.bytes);
  EXPECT_NO_THROW((void)load_network(file.path()));
}

TEST(Serialize, SaveValidatesSpecParamsCoherence) {
  const NetworkSpec spec = models::tiny(12, 4, 2);
  NetworkParams wrong;  // empty banks
  EXPECT_THROW(save_network("/tmp/qnn_never.qnn", spec, wrong), Error);
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW((void)load_network("/tmp/definitely_missing.qnn"), Error);
}

}  // namespace
}  // namespace qnn
