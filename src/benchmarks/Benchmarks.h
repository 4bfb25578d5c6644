//===- Benchmarks.h - the 12 paper benchmarks (Table 4) ---------*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark suite of Table 4 as DSL pipelines with input generators,
/// native reference implementations (correctness oracles) and the
/// paper's / container-scaled problem sizes:
///
///   convlayer  3x3xCxC convolution layer        (temporal)
///   doitgen    multiresolution analysis kernel  (temporal)
///   matmul     matrix multiplication            (temporal)
///   3mm        three chained matmuls            (temporal)
///   gemm       generalized matmul               (temporal)
///   trmm       triangular matmul (out-of-place; see DESIGN.md)
///   syrk       symmetric rank-k update          (temporal)
///   syr2k      symmetric rank-2k update         (temporal)
///   tpm        transposition + masking          (spatial, NTI)
///   tp         transposition                    (spatial, NTI)
///   copy       array copy                       (no-transform, NTI)
///   mask       array mask                       (no-transform, NTI)
///
/// A kernel is built in two steps. The *definition* (`BenchmarkDef::Define`)
/// builds the stages, their extents, the work count, the output name and
/// the oracle, and declares every buffer by name, element type, shape and
/// fill seed; its `BufferRef`s carry shapes only (`Data == nullptr`). The
/// *data* step (`allocateData`) allocates and seeds the declared buffers
/// and the expected-output buffer. Scheduling, linting, lowering and code
/// generation read shapes only, so the serving daemon and `ltp-opt` stop
/// after the definition unless they run or simulate the kernel;
/// `BenchmarkDef::Create` composes both steps for everything that executes.
/// The engines that read buffer contents (JIT run, interpreter, VM, access
/// programs, `verifyOutput`) assert that the data step has run.
///
//===----------------------------------------------------------------------===//

#ifndef LTP_BENCHMARKS_BENCHMARKS_H
#define LTP_BENCHMARKS_BENCHMARKS_H

#include "lang/Func.h"
#include "runtime/Buffer.h"

#include <cassert>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace ltp {

/// A benchmark instance: pipeline stages, buffer shapes, and a reference
/// oracle, plus the buffer contents once allocateData has run.
struct BenchmarkInstance {
  /// One buffer the definition declares, in allocation order.
  struct BufferDecl {
    std::string Name;
    /// fillRandom seed; 0 leaves the buffer zero-initialized.
    uint32_t Seed = 0;
  };

  std::string Name;
  /// Pipeline stages in realization order (compute_root semantics: each
  /// stage realizes fully into its named buffer before the next runs).
  std::vector<Func> Stages;
  /// Output extents of each stage (dimension 0 first).
  std::vector<std::vector<int64_t>> StageExtents;
  /// All buffers by name: external inputs plus every stage output. Shapes
  /// are set by the definition, Data by allocateData.
  std::map<std::string, BufferRef> Buffers;
  /// Declaration order of Buffers, which allocateData follows (and then
  /// allocates the expected output).
  std::vector<BufferDecl> Declared;
  /// Name of the final output buffer.
  std::string OutputName;
  /// Computes the expected output into ExpectedRef from the instance's
  /// input buffers (native loops).
  std::function<void(const BenchmarkInstance &)> FillExpected;
  BufferRef ExpectedRef;
  /// Floating-point (or element) operations per full run, for reporting.
  double Work = 0.0;
  /// Keeps the typed buffers alive.
  std::vector<std::shared_ptr<void>> Storage;

  /// Declares a dense, dimension-0-contiguous buffer without allocating it.
  void declareBuffer(const std::string &BufName, ir::Type ElemType,
                     std::vector<int64_t> Extents, uint32_t Seed);
  /// Declares the expected-output buffer the oracle writes.
  void declareExpected(ir::Type ElemType, std::vector<int64_t> Extents);

  /// Typed contents of a buffer (asserts allocateData has run).
  template <typename T> T *data(const std::string &BufName) const {
    auto It = Buffers.find(BufName);
    assert(It != Buffers.end() && "unknown benchmark buffer");
    assert(It->second.Data && "buffer has no data: call allocateData");
    return static_cast<T *>(It->second.Data);
  }
  /// Typed contents of the expected-output buffer.
  template <typename T> T *expected() const {
    assert(ExpectedRef.Data && "buffer has no data: call allocateData");
    return static_cast<T *>(ExpectedRef.Data);
  }
};

/// The data step: allocates every declared buffer and then the expected
/// output, in declaration order, filling each with its seed. Must run
/// once, on a definition-only instance.
void allocateData(BenchmarkInstance &Instance);

/// Static description of one benchmark.
struct BenchmarkDef {
  std::string Name;
  std::string Description;
  /// Container-scaled default problem size.
  int64_t DefaultSize;
  /// The paper's Table-4 problem size.
  int64_t PaperSize;
  /// The definition step at the given size: stages, shapes, oracle, no
  /// buffer data.
  std::function<BenchmarkInstance(int64_t)> Define;

  /// Definition plus data: an instance ready to run, simulate or verify.
  BenchmarkInstance Create(int64_t Size) const {
    BenchmarkInstance Instance = Define(Size);
    allocateData(Instance);
    return Instance;
  }
};

/// All Table-4 benchmarks, in the paper's order.
const std::vector<BenchmarkDef> &allBenchmarks();

/// Kernels beyond the paper's suite (PolyBench gemver/atax/mvt/bicg and a
/// Jacobi stencil) exercising 1-D reductions, multi-stage pipelines and
/// the stencil classification path. Defined in ExtendedBenchmarks.cpp.
const std::vector<BenchmarkDef> &extendedBenchmarks();

/// Finds a benchmark by name in either suite; null when unknown.
const BenchmarkDef *findBenchmark(const std::string &Name);

/// Compares the final output against the reference oracle (which is
/// computed on demand). Returns true when every element matches within a
/// type-appropriate tolerance. Needs an instance with data.
bool verifyOutput(const BenchmarkInstance &Instance);

} // namespace ltp

#endif // LTP_BENCHMARKS_BENCHMARKS_H
