//===- Benchmarks.cpp - the 12 paper benchmarks (Table 4) ----------------===//

#include "benchmarks/Benchmarks.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace ltp;

namespace {

/// A buffer view with a shape and no data.
BufferRef shapeOnly(ir::Type ElemType, std::vector<int64_t> Extents) {
  BufferRef Ref;
  Ref.ElemType = ElemType;
  Ref.Strides = denseStrides(Extents);
  Ref.Extents = std::move(Extents);
  return Ref;
}

/// Allocates storage for one declared buffer, seeds it, and points \p Ref
/// at it.
template <typename T>
std::shared_ptr<void> allocateTyped(BufferRef &Ref, uint32_t Seed) {
  auto Owned = std::make_shared<Buffer<T>>(Ref.Extents);
  if (Seed != 0)
    Owned->fillRandom(Seed);
  Ref.Data = Owned->data();
  return Owned;
}

std::shared_ptr<void> allocate(BufferRef &Ref, uint32_t Seed) {
  assert(!Ref.Data && "buffer data already allocated");
  if (Ref.ElemType == ir::Type::float32())
    return allocateTyped<float>(Ref, Seed);
  if (Ref.ElemType == ir::Type::uint32())
    return allocateTyped<uint32_t>(Ref, Seed);
  assert(false && "benchmark buffers are float32 or uint32");
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Temporal-reuse kernels
//===----------------------------------------------------------------------===//

BenchmarkInstance makeMatmul(int64_t N) {
  BenchmarkInstance I;
  I.Name = "matmul";
  I.declareBuffer("A", ir::Type::float32(), {N, N}, 1);
  I.declareBuffer("B", ir::Type::float32(), {N, N}, 2);
  I.declareBuffer("C", ir::Type::float32(), {N, N}, 0);
  I.declareExpected(ir::Type::float32(), {N, N});

  Var J("j"), Iv("i");
  RDom K(0, static_cast<int>(N), "k");
  InputBuffer AIn("A", ir::Type::float32(), 2);
  InputBuffer BIn("B", ir::Type::float32(), 2);
  Func C("C");
  C(J, Iv) = 0.0f;
  C(J, Iv) += AIn(K, Iv) * BIn(J, K);

  I.Stages = {C};
  I.StageExtents = {{N, N}};
  I.OutputName = "C";
  I.Work = 2.0 * static_cast<double>(N) * N * N;
  I.FillExpected = [N](const BenchmarkInstance &Inst) {
    const float *PA = Inst.data<float>("A"), *PB = Inst.data<float>("B");
    float *PE = Inst.expected<float>();
    for (int64_t Row = 0; Row != N; ++Row)
      for (int64_t Col = 0; Col != N; ++Col) {
        float Acc = 0.0f;
        for (int64_t K2 = 0; K2 != N; ++K2)
          Acc += PA[Row * N + K2] * PB[K2 * N + Col];
        PE[Row * N + Col] = Acc;
      }
  };
  return I;
}

BenchmarkInstance makeGemm(int64_t N) {
  BenchmarkInstance I;
  I.Name = "gemm";
  const float Alpha = 1.5f, Beta = 1.2f;
  I.declareBuffer("A", ir::Type::float32(), {N, N}, 3);
  I.declareBuffer("B", ir::Type::float32(), {N, N}, 4);
  I.declareBuffer("Cin", ir::Type::float32(), {N, N}, 5);
  I.declareBuffer("C", ir::Type::float32(), {N, N}, 0);
  I.declareExpected(ir::Type::float32(), {N, N});

  Var J("j"), Iv("i");
  RDom K(0, static_cast<int>(N), "k");
  InputBuffer AIn("A", ir::Type::float32(), 2);
  InputBuffer BIn("B", ir::Type::float32(), 2);
  InputBuffer CIn("Cin", ir::Type::float32(), 2);
  Func C("C");
  C(J, Iv) = Beta * CIn(J, Iv);
  C(J, Iv) += Alpha * AIn(K, Iv) * BIn(J, K);

  I.Stages = {C};
  I.StageExtents = {{N, N}};
  I.OutputName = "C";
  I.Work = 2.0 * static_cast<double>(N) * N * N;
  I.FillExpected = [N, Alpha, Beta](const BenchmarkInstance &Inst) {
    const float *PA = Inst.data<float>("A"), *PB = Inst.data<float>("B"),
                *PC = Inst.data<float>("Cin");
    float *PE = Inst.expected<float>();
    for (int64_t Row = 0; Row != N; ++Row)
      for (int64_t Col = 0; Col != N; ++Col) {
        float Acc = Beta * PC[Row * N + Col];
        for (int64_t K2 = 0; K2 != N; ++K2)
          Acc += Alpha * PA[Row * N + K2] * PB[K2 * N + Col];
        PE[Row * N + Col] = Acc;
      }
  };
  return I;
}

BenchmarkInstance make3mm(int64_t N) {
  BenchmarkInstance I;
  I.Name = "3mm";
  I.declareBuffer("A", ir::Type::float32(), {N, N}, 6);
  I.declareBuffer("B", ir::Type::float32(), {N, N}, 7);
  I.declareBuffer("Cm", ir::Type::float32(), {N, N}, 8);
  I.declareBuffer("D", ir::Type::float32(), {N, N}, 9);
  I.declareBuffer("E", ir::Type::float32(), {N, N}, 0);
  I.declareBuffer("F", ir::Type::float32(), {N, N}, 0);
  I.declareBuffer("G", ir::Type::float32(), {N, N}, 0);
  I.declareExpected(ir::Type::float32(), {N, N});

  Var J("j"), Iv("i");
  InputBuffer AIn("A", ir::Type::float32(), 2);
  InputBuffer BIn("B", ir::Type::float32(), 2);
  InputBuffer CmIn("Cm", ir::Type::float32(), 2);
  InputBuffer DIn("D", ir::Type::float32(), 2);
  InputBuffer EIn("E", ir::Type::float32(), 2);
  InputBuffer FIn("F", ir::Type::float32(), 2);

  RDom K1(0, static_cast<int>(N), "k1");
  Func E("E");
  E(J, Iv) = 0.0f;
  E(J, Iv) += AIn(K1, Iv) * BIn(J, K1);

  RDom K2(0, static_cast<int>(N), "k2");
  Func F("F");
  F(J, Iv) = 0.0f;
  F(J, Iv) += CmIn(K2, Iv) * DIn(J, K2);

  RDom K3(0, static_cast<int>(N), "k3");
  Func G("G");
  G(J, Iv) = 0.0f;
  G(J, Iv) += EIn(K3, Iv) * FIn(J, K3);

  I.Stages = {E, F, G};
  I.StageExtents = {{N, N}, {N, N}, {N, N}};
  I.OutputName = "G";
  I.Work = 6.0 * static_cast<double>(N) * N * N;
  I.FillExpected = [N](const BenchmarkInstance &Inst) {
    std::vector<float> TE(static_cast<size_t>(N * N));
    std::vector<float> TF(static_cast<size_t>(N * N));
    const float *PA = Inst.data<float>("A"), *PB = Inst.data<float>("B"),
                *PC = Inst.data<float>("Cm"), *PD = Inst.data<float>("D");
    for (int64_t R = 0; R != N; ++R)
      for (int64_t C2 = 0; C2 != N; ++C2) {
        float AccE = 0.0f, AccF = 0.0f;
        for (int64_t K = 0; K != N; ++K) {
          AccE += PA[R * N + K] * PB[K * N + C2];
          AccF += PC[R * N + K] * PD[K * N + C2];
        }
        TE[static_cast<size_t>(R * N + C2)] = AccE;
        TF[static_cast<size_t>(R * N + C2)] = AccF;
      }
    float *PW = Inst.expected<float>();
    for (int64_t R = 0; R != N; ++R)
      for (int64_t C2 = 0; C2 != N; ++C2) {
        float Acc = 0.0f;
        for (int64_t K = 0; K != N; ++K)
          Acc += TE[static_cast<size_t>(R * N + K)] *
                 TF[static_cast<size_t>(K * N + C2)];
        PW[R * N + C2] = Acc;
      }
  };
  return I;
}

BenchmarkInstance makeTrmm(int64_t N) {
  BenchmarkInstance I;
  I.Name = "trmm";
  const float Alpha = 1.1f;
  I.declareBuffer("A", ir::Type::float32(), {N, N}, 10);
  I.declareBuffer("B", ir::Type::float32(), {N, N}, 11);
  I.declareBuffer("Bout", ir::Type::float32(), {N, N}, 0);
  I.declareExpected(ir::Type::float32(), {N, N});

  // Out-of-place triangular matmul: Bout = alpha * (A^T_lower * B + B),
  // with the strictly-lower-triangular part of A (k > i) contributing.
  Var J("j"), Iv("i");
  RDom K(0, static_cast<int>(N), "k");
  K.where(Expr(K) > Expr(Iv));
  InputBuffer AIn("A", ir::Type::float32(), 2);
  InputBuffer BIn("B", ir::Type::float32(), 2);
  Func Bout("Bout");
  Bout(J, Iv) = Alpha * BIn(J, Iv);
  Bout(J, Iv) += Alpha * AIn(Iv, K) * BIn(J, K);

  I.Stages = {Bout};
  I.StageExtents = {{N, N}};
  I.OutputName = "Bout";
  I.Work = static_cast<double>(N) * N * N; // ~half the cube, x2 flops
  I.FillExpected = [N, Alpha](const BenchmarkInstance &Inst) {
    const float *PA = Inst.data<float>("A"), *PB = Inst.data<float>("B");
    float *PE = Inst.expected<float>();
    for (int64_t Row = 0; Row != N; ++Row)
      for (int64_t Col = 0; Col != N; ++Col) {
        float Acc = PB[Row * N + Col];
        for (int64_t K2 = Row + 1; K2 < N; ++K2)
          Acc += PA[K2 * N + Row] * PB[K2 * N + Col];
        PE[Row * N + Col] = Alpha * Acc;
      }
  };
  return I;
}

BenchmarkInstance makeSyrk(int64_t N) {
  BenchmarkInstance I;
  I.Name = "syrk";
  const float Alpha = 1.3f, Beta = 0.7f;
  I.declareBuffer("A", ir::Type::float32(), {N, N}, 12);
  I.declareBuffer("Cin", ir::Type::float32(), {N, N}, 13);
  I.declareBuffer("C", ir::Type::float32(), {N, N}, 0);
  I.declareExpected(ir::Type::float32(), {N, N});

  Var J("j"), Iv("i");
  RDom K(0, static_cast<int>(N), "k");
  InputBuffer AIn("A", ir::Type::float32(), 2);
  InputBuffer CIn("Cin", ir::Type::float32(), 2);
  Func C("C");
  C(J, Iv) = Beta * CIn(J, Iv);
  C(J, Iv) += Alpha * AIn(K, Iv) * AIn(K, J);

  I.Stages = {C};
  I.StageExtents = {{N, N}};
  I.OutputName = "C";
  I.Work = 2.0 * static_cast<double>(N) * N * N;
  I.FillExpected = [N, Alpha, Beta](const BenchmarkInstance &Inst) {
    const float *PA = Inst.data<float>("A"), *PC = Inst.data<float>("Cin");
    float *PE = Inst.expected<float>();
    for (int64_t Row = 0; Row != N; ++Row)
      for (int64_t Col = 0; Col != N; ++Col) {
        float Acc = Beta * PC[Row * N + Col];
        for (int64_t K2 = 0; K2 != N; ++K2)
          Acc += Alpha * PA[Row * N + K2] * PA[Col * N + K2];
        PE[Row * N + Col] = Acc;
      }
  };
  return I;
}

BenchmarkInstance makeSyr2k(int64_t N) {
  BenchmarkInstance I;
  I.Name = "syr2k";
  const float Alpha = 0.8f, Beta = 1.4f;
  I.declareBuffer("A", ir::Type::float32(), {N, N}, 14);
  I.declareBuffer("B", ir::Type::float32(), {N, N}, 15);
  I.declareBuffer("Cin", ir::Type::float32(), {N, N}, 16);
  I.declareBuffer("C", ir::Type::float32(), {N, N}, 0);
  I.declareExpected(ir::Type::float32(), {N, N});

  Var J("j"), Iv("i");
  RDom K(0, static_cast<int>(N), "k");
  InputBuffer AIn("A", ir::Type::float32(), 2);
  InputBuffer BIn("B", ir::Type::float32(), 2);
  InputBuffer CIn("Cin", ir::Type::float32(), 2);
  Func C("C");
  C(J, Iv) = Beta * CIn(J, Iv);
  C(J, Iv) +=
      Alpha * AIn(K, Iv) * BIn(K, J) + Alpha * BIn(K, Iv) * AIn(K, J);

  I.Stages = {C};
  I.StageExtents = {{N, N}};
  I.OutputName = "C";
  I.Work = 4.0 * static_cast<double>(N) * N * N;
  I.FillExpected = [N, Alpha, Beta](const BenchmarkInstance &Inst) {
    const float *PA = Inst.data<float>("A"), *PB = Inst.data<float>("B"),
                *PC = Inst.data<float>("Cin");
    float *PE = Inst.expected<float>();
    for (int64_t Row = 0; Row != N; ++Row)
      for (int64_t Col = 0; Col != N; ++Col) {
        float Acc = Beta * PC[Row * N + Col];
        for (int64_t K2 = 0; K2 != N; ++K2)
          Acc += Alpha * PA[Row * N + K2] * PB[Col * N + K2] +
                 Alpha * PB[Row * N + K2] * PA[Col * N + K2];
        PE[Row * N + Col] = Acc;
      }
  };
  return I;
}

BenchmarkInstance makeDoitgen(int64_t N) {
  BenchmarkInstance I;
  I.Name = "doitgen";
  // Out(p, q, r) = sum_s A(s, q, r) * C4(p, s).
  I.declareBuffer("A", ir::Type::float32(), {N, N, N}, 17);
  I.declareBuffer("C4", ir::Type::float32(), {N, N}, 18);
  I.declareBuffer("Out", ir::Type::float32(), {N, N, N}, 0);
  I.declareExpected(ir::Type::float32(), {N, N, N});

  Var P("p"), Q("q"), R("r");
  RDom S(0, static_cast<int>(N), "s");
  InputBuffer AIn("A", ir::Type::float32(), 3);
  InputBuffer C4In("C4", ir::Type::float32(), 2);
  Func Out("Out");
  Out(P, Q, R) = 0.0f;
  Out(P, Q, R) += AIn(S, Q, R) * C4In(P, S);

  I.Stages = {Out};
  I.StageExtents = {{N, N, N}};
  I.OutputName = "Out";
  I.Work = 2.0 * static_cast<double>(N) * N * N * N;
  I.FillExpected = [N](const BenchmarkInstance &Inst) {
    const float *PA = Inst.data<float>("A"), *PC = Inst.data<float>("C4");
    float *PE = Inst.expected<float>();
    for (int64_t R2 = 0; R2 != N; ++R2)
      for (int64_t Q2 = 0; Q2 != N; ++Q2)
        for (int64_t P2 = 0; P2 != N; ++P2) {
          float Acc = 0.0f;
          for (int64_t S2 = 0; S2 != N; ++S2)
            Acc += PA[(R2 * N + Q2) * N + S2] * PC[S2 * N + P2];
          PE[(R2 * N + Q2) * N + P2] = Acc;
        }
  };
  return I;
}

BenchmarkInstance makeConvLayer(int64_t Size) {
  BenchmarkInstance I;
  I.Name = "convlayer";
  // out(x, y, k, b) = sum_{rx, ry, c} in(x+rx, y+ry, c, b) * w(rx, ry, c, k)
  const int64_t W = Size, H = Size;
  const int64_t Ch = std::min<int64_t>(64, std::max<int64_t>(8, Size / 4));
  const int64_t K = Ch;
  const int64_t B = std::max<int64_t>(1, Size / 64);
  I.declareBuffer("In", ir::Type::float32(), {W + 2, H + 2, Ch, B}, 19);
  I.declareBuffer("Wgt", ir::Type::float32(), {3, 3, Ch, K}, 20);
  I.declareBuffer("Out", ir::Type::float32(), {W, H, K, B}, 0);
  I.declareExpected(ir::Type::float32(), {W, H, K, B});

  Var X("x"), Y("y"), Kv("ko"), Bv("b");
  RDom R(std::vector<RVar>{RVar("rx", 0, 3), RVar("ry", 0, 3),
                           RVar("rc", 0, static_cast<int>(Ch))});
  InputBuffer InB("In", ir::Type::float32(), 4);
  InputBuffer WgtB("Wgt", ir::Type::float32(), 4);
  Func Out("Out");
  Out(X, Y, Kv, Bv) = 0.0f;
  Out(X, Y, Kv, Bv) += InB(Expr(X) + Expr(R[0]), Expr(Y) + Expr(R[1]),
                           R[2], Bv) *
                       WgtB(R[0], R[1], R[2], Kv);

  I.Stages = {Out};
  I.StageExtents = {{W, H, K, B}};
  I.OutputName = "Out";
  I.Work = 2.0 * 9.0 * static_cast<double>(Ch) * W * H * K * B;
  I.FillExpected = [W, H, Ch, K, B](const BenchmarkInstance &Inst) {
    const float *PI = Inst.data<float>("In"), *PW = Inst.data<float>("Wgt");
    float *PE = Inst.expected<float>();
    int64_t IW = W + 2, IH = H + 2;
    for (int64_t B2 = 0; B2 != B; ++B2)
      for (int64_t K2 = 0; K2 != K; ++K2)
        for (int64_t Y2 = 0; Y2 != H; ++Y2)
          for (int64_t X2 = 0; X2 != W; ++X2) {
            float Acc = 0.0f;
            for (int64_t C2 = 0; C2 != Ch; ++C2)
              for (int64_t RY = 0; RY != 3; ++RY)
                for (int64_t RX = 0; RX != 3; ++RX)
                  Acc += PI[((B2 * Ch + C2) * IH + (Y2 + RY)) * IW +
                            (X2 + RX)] *
                         PW[((K2 * Ch + C2) * 3 + RY) * 3 + RX];
            PE[((B2 * K + K2) * H + Y2) * W + X2] = Acc;
          }
  };
  return I;
}

//===----------------------------------------------------------------------===//
// Spatial-reuse and streaming kernels
//===----------------------------------------------------------------------===//

BenchmarkInstance makeTranspose(int64_t N) {
  BenchmarkInstance I;
  I.Name = "tp";
  I.declareBuffer("A", ir::Type::uint32(), {N, N}, 21);
  I.declareBuffer("Out", ir::Type::uint32(), {N, N}, 0);
  I.declareExpected(ir::Type::uint32(), {N, N});

  Var X("x"), Y("y");
  InputBuffer AIn("A", ir::Type::uint32(), 2);
  Func Out("Out");
  Out(X, Y) = AIn(Y, X);

  I.Stages = {Out};
  I.StageExtents = {{N, N}};
  I.OutputName = "Out";
  I.Work = static_cast<double>(N) * N;
  I.FillExpected = [N](const BenchmarkInstance &Inst) {
    const uint32_t *PA = Inst.data<uint32_t>("A");
    uint32_t *PE = Inst.expected<uint32_t>();
    for (int64_t Y2 = 0; Y2 != N; ++Y2)
      for (int64_t X2 = 0; X2 != N; ++X2)
        PE[Y2 * N + X2] = PA[X2 * N + Y2];
  };
  return I;
}

BenchmarkInstance makeTpm(int64_t N) {
  BenchmarkInstance I;
  I.Name = "tpm";
  I.declareBuffer("A", ir::Type::uint32(), {N, N}, 22);
  I.declareBuffer("B", ir::Type::uint32(), {N, N}, 23);
  I.declareBuffer("Out", ir::Type::uint32(), {N, N}, 0);
  I.declareExpected(ir::Type::uint32(), {N, N});

  // Listing 2: out[y][x] = A[x][y] & B[y][x].
  Var X("x"), Y("y");
  InputBuffer AIn("A", ir::Type::uint32(), 2);
  InputBuffer BIn("B", ir::Type::uint32(), 2);
  Func Out("Out");
  Out(X, Y) = AIn(Y, X) & BIn(X, Y);

  I.Stages = {Out};
  I.StageExtents = {{N, N}};
  I.OutputName = "Out";
  I.Work = static_cast<double>(N) * N;
  I.FillExpected = [N](const BenchmarkInstance &Inst) {
    const uint32_t *PA = Inst.data<uint32_t>("A"),
                   *PB = Inst.data<uint32_t>("B");
    uint32_t *PE = Inst.expected<uint32_t>();
    for (int64_t Y2 = 0; Y2 != N; ++Y2)
      for (int64_t X2 = 0; X2 != N; ++X2)
        PE[Y2 * N + X2] = PA[X2 * N + Y2] & PB[Y2 * N + X2];
  };
  return I;
}

BenchmarkInstance makeCopy(int64_t N) {
  BenchmarkInstance I;
  I.Name = "copy";
  I.declareBuffer("A", ir::Type::uint32(), {N, N}, 24);
  I.declareBuffer("Out", ir::Type::uint32(), {N, N}, 0);
  I.declareExpected(ir::Type::uint32(), {N, N});

  Var X("x"), Y("y");
  InputBuffer AIn("A", ir::Type::uint32(), 2);
  Func Out("Out");
  Out(X, Y) = AIn(X, Y);

  I.Stages = {Out};
  I.StageExtents = {{N, N}};
  I.OutputName = "Out";
  I.Work = static_cast<double>(N) * N;
  I.FillExpected = [N](const BenchmarkInstance &Inst) {
    const uint32_t *PA = Inst.data<uint32_t>("A");
    uint32_t *PE = Inst.expected<uint32_t>();
    std::copy(PA, PA + N * N, PE);
  };
  return I;
}

BenchmarkInstance makeMask(int64_t N) {
  BenchmarkInstance I;
  I.Name = "mask";
  I.declareBuffer("A", ir::Type::uint32(), {N, N}, 25);
  I.declareBuffer("B", ir::Type::uint32(), {N, N}, 26);
  I.declareBuffer("Out", ir::Type::uint32(), {N, N}, 0);
  I.declareExpected(ir::Type::uint32(), {N, N});

  Var X("x"), Y("y");
  InputBuffer AIn("A", ir::Type::uint32(), 2);
  InputBuffer BIn("B", ir::Type::uint32(), 2);
  Func Out("Out");
  Out(X, Y) = AIn(X, Y) & BIn(X, Y);

  I.Stages = {Out};
  I.StageExtents = {{N, N}};
  I.OutputName = "Out";
  I.Work = static_cast<double>(N) * N;
  I.FillExpected = [N](const BenchmarkInstance &Inst) {
    const uint32_t *PA = Inst.data<uint32_t>("A"),
                   *PB = Inst.data<uint32_t>("B");
    uint32_t *PE = Inst.expected<uint32_t>();
    for (int64_t Idx = 0; Idx != N * N; ++Idx)
      PE[Idx] = PA[Idx] & PB[Idx];
  };
  return I;
}

} // namespace

void BenchmarkInstance::declareBuffer(const std::string &BufName,
                                      ir::Type ElemType,
                                      std::vector<int64_t> Extents,
                                      uint32_t Seed) {
  assert(!Buffers.count(BufName) && "buffer declared twice");
  Buffers[BufName] = shapeOnly(ElemType, std::move(Extents));
  Declared.push_back({BufName, Seed});
}

void BenchmarkInstance::declareExpected(ir::Type ElemType,
                                        std::vector<int64_t> Extents) {
  ExpectedRef = shapeOnly(ElemType, std::move(Extents));
}

void ltp::allocateData(BenchmarkInstance &Instance) {
  assert(Instance.Storage.empty() && "instance data already allocated");
  for (const BenchmarkInstance::BufferDecl &D : Instance.Declared)
    Instance.Storage.push_back(allocate(Instance.Buffers.at(D.Name), D.Seed));
  Instance.Storage.push_back(allocate(Instance.ExpectedRef, 0));
}

const std::vector<BenchmarkDef> &ltp::allBenchmarks() {
  static const std::vector<BenchmarkDef> Defs = {
      {"convlayer", "3x3xCxC convolution layer", 96, 256, makeConvLayer},
      {"doitgen", "multiresolution analysis kernel", 128, 256, makeDoitgen},
      {"matmul", "matrix multiplication", 1024, 2048, makeMatmul},
      {"3mm", "three chained matrix multiplications", 768, 2048, make3mm},
      {"gemm", "generalized matrix multiplication", 1024, 2048, makeGemm},
      {"trmm", "triangular matrix multiplication (out-of-place)", 1024,
       2048, makeTrmm},
      {"syrk", "symmetric rank-k update", 1024, 2048, makeSyrk},
      {"syr2k", "symmetric rank-2k update", 768, 2048, makeSyr2k},
      {"tpm", "matrix transposition and masking", 2048, 4096, makeTpm},
      {"tp", "matrix transposition", 2048, 4096, makeTranspose},
      {"copy", "array copy", 2048, 4096, makeCopy},
      {"mask", "array mask", 2048, 4096, makeMask},
  };
  return Defs;
}

const BenchmarkDef *ltp::findBenchmark(const std::string &Name) {
  for (const BenchmarkDef &Def : allBenchmarks())
    if (Def.Name == Name)
      return &Def;
  for (const BenchmarkDef &Def : extendedBenchmarks())
    if (Def.Name == Name)
      return &Def;
  return nullptr;
}

bool ltp::verifyOutput(const BenchmarkInstance &Instance) {
  assert(Instance.FillExpected && "benchmark lacks a reference oracle");
  auto It = Instance.Buffers.find(Instance.OutputName);
  assert(It != Instance.Buffers.end() && "output buffer missing");
  const BufferRef &Out = It->second;
  const BufferRef &Want = Instance.ExpectedRef;
  assert(Out.Data && Want.Data && "verifyOutput needs an instance with data");
  Instance.FillExpected(Instance);
  assert(Out.numElements() == Want.numElements() &&
         "output/expected shape mismatch");

  if (Out.ElemType == ir::Type::float32()) {
    const float *PO = static_cast<const float *>(Out.Data);
    const float *PW = static_cast<const float *>(Want.Data);
    for (int64_t Idx = 0; Idx != Out.numElements(); ++Idx) {
      double Tolerance = 1e-3 * (1.0 + std::fabs(PW[Idx]));
      if (std::fabs(PO[Idx] - PW[Idx]) > Tolerance)
        return false;
    }
    return true;
  }
  if (Out.ElemType == ir::Type::uint32()) {
    const uint32_t *PO = static_cast<const uint32_t *>(Out.Data);
    const uint32_t *PW = static_cast<const uint32_t *>(Want.Data);
    for (int64_t Idx = 0; Idx != Out.numElements(); ++Idx)
      if (PO[Idx] != PW[Idx])
        return false;
    return true;
  }
  assert(false && "unsupported output element type");
  return false;
}
