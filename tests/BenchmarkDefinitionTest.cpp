//===- BenchmarkDefinitionTest.cpp - definition vs data of a kernel -------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// Every kernel is built in two steps: the definition (stages, shapes,
// oracle) and the data (allocated, seeded buffers). These tests pin the
// split: a definition carries exactly the shapes Create produces and no
// data; Create still produces the same input bytes and the same oracle
// output as before the split (hashes pinned from the single-step
// builder); and every engine that reads buffer contents refuses a
// definition-only instance instead of dereferencing null.
//
//===----------------------------------------------------------------------===//

#include "benchmarks/PipelineRunner.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

using namespace ltp;

namespace {

constexpr int64_t Size = 16;

/// FNV-1a over \p Bytes, continuing from \p Hash.
uint64_t fnv1a(uint64_t Hash, const void *Bytes, size_t Count) {
  const unsigned char *P = static_cast<const unsigned char *>(Bytes);
  for (size_t I = 0; I != Count; ++I) {
    Hash ^= P[I];
    Hash *= 1099511628211ULL;
  }
  return Hash;
}

constexpr uint64_t FnvBasis = 1469598103934665603ULL;

/// Hash of every buffer's name and bytes, in name order.
uint64_t buffersHash(const BenchmarkInstance &I) {
  uint64_t Hash = FnvBasis;
  for (const auto &[Name, Ref] : I.Buffers) {
    Hash = fnv1a(Hash, Name.data(), Name.size());
    Hash = fnv1a(Hash, Ref.Data, static_cast<size_t>(Ref.sizeBytes()));
  }
  return Hash;
}

struct PinnedHashes {
  uint64_t Buffers;
  uint64_t Expected;
};

/// Buffer and oracle-output hashes at size 16, recorded from the builder
/// that allocated and filled buffers while defining the kernel.
const std::map<std::string, PinnedHashes> &pinnedHashes() {
  static const std::map<std::string, PinnedHashes> Pinned = {
      {"convlayer", {0xc5330f64cbe9af63ULL, 0x449a983fd868adfcULL}},
      {"doitgen", {0xf4eb5200ceda62bfULL, 0x03f8ff6eff807240ULL}},
      {"matmul", {0x80d1944c667d1001ULL, 0x3cbf83d9ad595592ULL}},
      {"3mm", {0x5e7e83256b549ca7ULL, 0x1d38b78e8660019eULL}},
      {"gemm", {0x78d54ddc05a9e25dULL, 0x83ca50a130e5ce93ULL}},
      {"trmm", {0xe8a598f86f001966ULL, 0x43455264d76b52caULL}},
      {"syrk", {0x64b53791b12ef188ULL, 0x48db8855b75dfc4dULL}},
      {"syr2k", {0xfb57a1d3fdc001c5ULL, 0xeb55613ce2cae8a6ULL}},
      {"tpm", {0xd4f86806dcd8d21dULL, 0xd9016858a2673a79ULL}},
      {"tp", {0x6e6ed24779b47561ULL, 0x4168f300578d68faULL}},
      {"copy", {0x09293135fd6d64dbULL, 0x40564ebc45e639e4ULL}},
      {"mask", {0x9601044a47432cc8ULL, 0xc0ac4e0068576dd5ULL}},
      {"atax", {0x1beda79ba5f55c33ULL, 0x230ac06587526a4dULL}},
      {"bicg", {0xdc88a7c38ad8f510ULL, 0x5be5f889fa26b34cULL}},
      {"mvt", {0x73e236a6daef9109ULL, 0x43978f8bcafb0420ULL}},
      {"gemver", {0x6c7b4aa60b9be997ULL, 0xab5601748a63db15ULL}},
      {"jacobi2d", {0x180b25d1cb73499aULL, 0x22dc460e3cfacbb4ULL}},
  };
  return Pinned;
}

std::vector<std::string> allKernelNames() {
  std::vector<std::string> Names;
  for (const BenchmarkDef &Def : allBenchmarks())
    Names.push_back(Def.Name);
  for (const BenchmarkDef &Def : extendedBenchmarks())
    Names.push_back(Def.Name);
  return Names;
}

void expectSameShape(const BufferRef &Got, const BufferRef &Want,
                     const std::string &What) {
  EXPECT_EQ(Got.ElemType, Want.ElemType) << What;
  EXPECT_EQ(Got.Extents, Want.Extents) << What;
  EXPECT_EQ(Got.Strides, Want.Strides) << What;
}

class DefinitionSplit : public ::testing::TestWithParam<std::string> {};

TEST_P(DefinitionSplit, DefineHasCreateShapesAndNoData) {
  const BenchmarkDef *Def = findBenchmark(GetParam());
  ASSERT_NE(Def, nullptr);
  BenchmarkInstance Defined = Def->Define(Size);
  BenchmarkInstance Created = Def->Create(Size);

  EXPECT_EQ(Defined.Name, Created.Name);
  EXPECT_EQ(Defined.Stages.size(), Created.Stages.size());
  EXPECT_EQ(Defined.StageExtents, Created.StageExtents);
  EXPECT_EQ(Defined.Work, Created.Work);
  EXPECT_EQ(Defined.OutputName, Created.OutputName);
  ASSERT_EQ(Defined.Buffers.size(), Created.Buffers.size());
  for (const auto &[Name, Ref] : Created.Buffers) {
    auto It = Defined.Buffers.find(Name);
    ASSERT_NE(It, Defined.Buffers.end()) << Name;
    expectSameShape(It->second, Ref, Name);
    EXPECT_EQ(It->second.Data, nullptr) << Name;
    EXPECT_NE(Ref.Data, nullptr) << Name;
  }
  expectSameShape(Defined.ExpectedRef, Created.ExpectedRef, "expected");
  EXPECT_EQ(Defined.ExpectedRef.Data, nullptr);
  EXPECT_NE(Created.ExpectedRef.Data, nullptr);
  EXPECT_TRUE(Defined.Storage.empty());
  // Every buffer plus the expected output is owned once data exists.
  EXPECT_EQ(Created.Storage.size(), Created.Buffers.size() + 1);
}

TEST_P(DefinitionSplit, CreateKeepsPinnedInputsAndOracle) {
  const BenchmarkDef *Def = findBenchmark(GetParam());
  ASSERT_NE(Def, nullptr);
  auto Pinned = pinnedHashes().find(GetParam());
  ASSERT_NE(Pinned, pinnedHashes().end()) << "no pinned hash";

  BenchmarkInstance Created = Def->Create(Size);
  EXPECT_EQ(buffersHash(Created), Pinned->second.Buffers);
  Created.FillExpected(Created);
  EXPECT_EQ(fnv1a(FnvBasis, Created.ExpectedRef.Data,
                  static_cast<size_t>(Created.ExpectedRef.sizeBytes())),
            Pinned->second.Expected);

  // The data step on its own seeds the same bytes as Create.
  BenchmarkInstance Split = Def->Define(Size);
  allocateData(Split);
  EXPECT_EQ(buffersHash(Split), Pinned->second.Buffers);
}

INSTANTIATE_TEST_SUITE_P(AllKernels, DefinitionSplit,
                         ::testing::ValuesIn(allKernelNames()),
                         [](const auto &Info) { return Info.param; });

// The engines that read buffer contents must refuse an instance that only
// went through the definition step.
TEST(DefinitionOnly, DataConsumersAssert) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const BenchmarkDef *Def = findBenchmark("copy");
  ASSERT_NE(Def, nullptr);
  BenchmarkInstance Defined = Def->Define(Size);

  EXPECT_DEATH(verifyOutput(Defined), "needs an instance with data");
  EXPECT_DEATH(runInterpreted(Defined), "has no data");
  EXPECT_DEATH(runInterpreted(Defined, false, InterpEngine::Reference),
               "has no data");
  EXPECT_DEATH(simulatePipeline(Defined, intelI7_6700()), "has no data");

  if (!jitAvailable())
    GTEST_SKIP() << "no host C compiler for the JIT check";
  // Compiling reads shapes only, so it succeeds; running does not.
  JITCompiler Compiler;
  auto Pipeline = compilePipeline(Defined, Compiler);
  ASSERT_TRUE(static_cast<bool>(Pipeline)) << Pipeline.getError();
  EXPECT_DEATH(Pipeline->run(Defined), "has no data");
}

} // namespace
