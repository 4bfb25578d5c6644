//===- ExtendedBenchmarks.cpp - kernels beyond the paper's suite ----------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// PolyBench kernels not in the paper's Table 4 plus a Jacobi stencil,
// used to exercise parts of the flow the original 12 do not reach:
//
//   atax      y = A^T (A x): two 1-D reductions, one over a transposed
//             view — temporal class with no parallelizable pure loop.
//   bicg      s = r A, q = A p: the same two orientations side by side.
//   mvt       x1 += A^T y1, x2 += A y2: independent 1-D stages.
//   gemver    A-hat = A + u1 v1^T + u2 v2^T, then two matrix-vector
//             products — a 4-stage pipeline mixing NoTransform and
//             temporal stages.
//   jacobi2d  5-point stencil: same index variables with constant
//             offsets, the pattern Figure 2 routes to NoTransform per
//             Kamil et al. [9].
//
//===----------------------------------------------------------------------===//

#include "benchmarks/Benchmarks.h"

#include <cassert>

using namespace ltp;

namespace {

BenchmarkInstance makeAtax(int64_t N) {
  BenchmarkInstance I;
  I.Name = "atax";
  // tmp = A x;  y = A^T tmp.  A(j, i) stores row i contiguously in j.
  I.declareBuffer("A", ir::Type::float32(), {N, N}, 31);
  I.declareBuffer("x", ir::Type::float32(), {N}, 32);
  I.declareBuffer("tmp", ir::Type::float32(), {N}, 0);
  I.declareBuffer("y", ir::Type::float32(), {N}, 0);
  I.declareExpected(ir::Type::float32(), {N});

  Var Iv("i"), Jv("j");
  InputBuffer AIn("A", ir::Type::float32(), 2);
  InputBuffer XIn("x", ir::Type::float32(), 1);
  InputBuffer TmpIn("tmp", ir::Type::float32(), 1);

  RDom J(0, static_cast<int>(N), "jr");
  Func Tmp("tmp");
  Tmp(Iv) = 0.0f;
  Tmp(Iv) += AIn(J, Iv) * XIn(J);

  RDom Ir(0, static_cast<int>(N), "ir");
  Func Y("y");
  Y(Jv) = 0.0f;
  Y(Jv) += AIn(Jv, Ir) * TmpIn(Ir);

  I.Stages = {Tmp, Y};
  I.StageExtents = {{N}, {N}};
  I.OutputName = "y";
  I.Work = 4.0 * static_cast<double>(N) * N;
  I.FillExpected = [N](const BenchmarkInstance &Inst) {
    const float *PA = Inst.data<float>("A"), *PX = Inst.data<float>("x");
    float *PE = Inst.expected<float>();
    std::vector<float> Tmp(static_cast<size_t>(N), 0.0f);
    for (int64_t R = 0; R != N; ++R) {
      float Acc = 0.0f;
      for (int64_t C = 0; C != N; ++C)
        Acc += PA[R * N + C] * PX[C];
      Tmp[static_cast<size_t>(R)] = Acc;
    }
    for (int64_t C = 0; C != N; ++C) {
      float Acc = 0.0f;
      for (int64_t R = 0; R != N; ++R)
        Acc += PA[R * N + C] * Tmp[static_cast<size_t>(R)];
      PE[C] = Acc;
    }
  };
  return I;
}

BenchmarkInstance makeBicg(int64_t N) {
  BenchmarkInstance I;
  I.Name = "bicg";
  // s = r A (column sums), q = A p (row sums); output is q, s is a second
  // realized stage whose correctness the q oracle implies only partially,
  // so the oracle checks q and the s stage feeds nothing.
  I.declareBuffer("A", ir::Type::float32(), {N, N}, 41);
  I.declareBuffer("r", ir::Type::float32(), {N}, 42);
  I.declareBuffer("p", ir::Type::float32(), {N}, 43);
  I.declareBuffer("s", ir::Type::float32(), {N}, 0);
  I.declareBuffer("q", ir::Type::float32(), {N}, 0);
  I.declareExpected(ir::Type::float32(), {N});

  Var Iv("i"), Jv("j");
  InputBuffer AIn("A", ir::Type::float32(), 2);
  InputBuffer RIn("r", ir::Type::float32(), 1);
  InputBuffer PIn("p", ir::Type::float32(), 1);

  RDom Ir(0, static_cast<int>(N), "ir");
  Func S("s");
  S(Jv) = 0.0f;
  S(Jv) += RIn(Ir) * AIn(Jv, Ir);

  RDom Jr(0, static_cast<int>(N), "jr");
  Func Q("q");
  Q(Iv) = 0.0f;
  Q(Iv) += AIn(Jr, Iv) * PIn(Jr);

  I.Stages = {S, Q};
  I.StageExtents = {{N}, {N}};
  I.OutputName = "q";
  I.Work = 4.0 * static_cast<double>(N) * N;
  I.FillExpected = [N](const BenchmarkInstance &Inst) {
    const float *PA = Inst.data<float>("A"), *PP = Inst.data<float>("p");
    float *PE = Inst.expected<float>();
    for (int64_t Row = 0; Row != N; ++Row) {
      float Acc = 0.0f;
      for (int64_t C = 0; C != N; ++C)
        Acc += PA[Row * N + C] * PP[C];
      PE[Row] = Acc;
    }
  };
  return I;
}

BenchmarkInstance makeMvt(int64_t N) {
  BenchmarkInstance I;
  I.Name = "mvt";
  I.declareBuffer("A", ir::Type::float32(), {N, N}, 51);
  I.declareBuffer("y1", ir::Type::float32(), {N}, 52);
  I.declareBuffer("x1in", ir::Type::float32(), {N}, 54);
  I.declareBuffer("x1", ir::Type::float32(), {N}, 0);
  I.declareExpected(ir::Type::float32(), {N});

  // x1 = x1in + A y1.
  Var Iv("i");
  InputBuffer AIn("A", ir::Type::float32(), 2);
  InputBuffer Y1In("y1", ir::Type::float32(), 1);
  InputBuffer X1("x1in", ir::Type::float32(), 1);
  RDom J(0, static_cast<int>(N), "jr");
  Func Out("x1");
  Out(Iv) = X1(Iv);
  Out(Iv) += AIn(J, Iv) * Y1In(J);

  I.Stages = {Out};
  I.StageExtents = {{N}};
  I.OutputName = "x1";
  I.Work = 2.0 * static_cast<double>(N) * N;
  I.FillExpected = [N](const BenchmarkInstance &Inst) {
    const float *PA = Inst.data<float>("A"), *PY = Inst.data<float>("y1"),
                *PX = Inst.data<float>("x1in");
    float *PE = Inst.expected<float>();
    for (int64_t Row = 0; Row != N; ++Row) {
      float Acc = PX[Row];
      for (int64_t C = 0; C != N; ++C)
        Acc += PA[Row * N + C] * PY[C];
      PE[Row] = Acc;
    }
  };
  return I;
}

BenchmarkInstance makeGemver(int64_t N) {
  BenchmarkInstance I;
  I.Name = "gemver";
  const float Alpha = 1.2f, Beta = 1.1f;
  I.declareBuffer("A", ir::Type::float32(), {N, N}, 61);
  I.declareBuffer("u1", ir::Type::float32(), {N}, 62);
  I.declareBuffer("v1", ir::Type::float32(), {N}, 63);
  I.declareBuffer("u2", ir::Type::float32(), {N}, 64);
  I.declareBuffer("v2", ir::Type::float32(), {N}, 65);
  I.declareBuffer("y", ir::Type::float32(), {N}, 66);
  I.declareBuffer("z", ir::Type::float32(), {N}, 67);
  I.declareBuffer("Ah", ir::Type::float32(), {N, N}, 0);
  I.declareBuffer("x", ir::Type::float32(), {N}, 0);
  I.declareBuffer("w", ir::Type::float32(), {N}, 0);
  I.declareExpected(ir::Type::float32(), {N});

  Var Iv("i"), Jv("j");
  InputBuffer AIn("A", ir::Type::float32(), 2);
  InputBuffer U1In("u1", ir::Type::float32(), 1);
  InputBuffer V1In("v1", ir::Type::float32(), 1);
  InputBuffer U2In("u2", ir::Type::float32(), 1);
  InputBuffer V2In("v2", ir::Type::float32(), 1);
  InputBuffer YIn("y", ir::Type::float32(), 1);
  InputBuffer ZIn("z", ir::Type::float32(), 1);
  InputBuffer AhIn("Ah", ir::Type::float32(), 2);
  InputBuffer XIn("x", ir::Type::float32(), 1);

  // Stage 1: rank-2 update; same index variables on both sides, no
  // transposition -> NoTransform (+NTI candidate).
  Func Ah("Ah");
  Ah(Jv, Iv) = AIn(Jv, Iv) + U1In(Iv) * V1In(Jv) + U2In(Iv) * V2In(Jv);

  // Stage 2: x = beta * Ah^T y + z.
  RDom Jr(0, static_cast<int>(N), "jr2");
  Func X("x");
  X(Iv) = ZIn(Iv);
  X(Iv) += Beta * AhIn(Iv, Jr) * YIn(Jr);

  // Stage 3: w = alpha * Ah x.
  RDom Jr3(0, static_cast<int>(N), "jr3");
  Func W("w");
  W(Iv) = 0.0f;
  W(Iv) += Alpha * AhIn(Jr3, Iv) * XIn(Jr3);

  I.Stages = {Ah, X, W};
  I.StageExtents = {{N, N}, {N}, {N}};
  I.OutputName = "w";
  I.Work = 2.0 * static_cast<double>(N) * N * 3.0;
  I.FillExpected = [N, Alpha, Beta](const BenchmarkInstance &Inst) {
    const float *PA = Inst.data<float>("A"), *PU1 = Inst.data<float>("u1"),
                *PV1 = Inst.data<float>("v1"), *PU2 = Inst.data<float>("u2"),
                *PV2 = Inst.data<float>("v2"), *PY = Inst.data<float>("y"),
                *PZ = Inst.data<float>("z");
    std::vector<float> AH(static_cast<size_t>(N * N));
    for (int64_t R = 0; R != N; ++R)
      for (int64_t C = 0; C != N; ++C)
        AH[static_cast<size_t>(R * N + C)] =
            PA[R * N + C] + PU1[R] * PV1[C] + PU2[R] * PV2[C];
    std::vector<float> XV(static_cast<size_t>(N));
    for (int64_t C = 0; C != N; ++C) {
      float Acc = PZ[C];
      for (int64_t R = 0; R != N; ++R)
        Acc += Beta * AH[static_cast<size_t>(R * N + C)] * PY[R];
      XV[static_cast<size_t>(C)] = Acc;
    }
    float *PE = Inst.expected<float>();
    for (int64_t R = 0; R != N; ++R) {
      float Acc = 0.0f;
      for (int64_t C = 0; C != N; ++C)
        Acc += Alpha * AH[static_cast<size_t>(R * N + C)] *
               XV[static_cast<size_t>(C)];
      PE[R] = Acc;
    }
  };
  return I;
}

BenchmarkInstance makeJacobi2d(int64_t N) {
  BenchmarkInstance I;
  I.Name = "jacobi2d";
  // One out-of-place 5-point sweep over a padded grid.
  I.declareBuffer("In", ir::Type::float32(), {N + 2, N + 2}, 71);
  I.declareBuffer("Out", ir::Type::float32(), {N, N}, 0);
  I.declareExpected(ir::Type::float32(), {N, N});

  Var X("x"), Y("y");
  InputBuffer InB("In", ir::Type::float32(), 2);
  Func Out("Out");
  Out(X, Y) = 0.2f * (InB(Expr(X) + 1, Expr(Y) + 1) +
                      InB(Expr(X), Expr(Y) + 1) +
                      InB(Expr(X) + 2, Expr(Y) + 1) +
                      InB(Expr(X) + 1, Expr(Y)) +
                      InB(Expr(X) + 1, Expr(Y) + 2));

  I.Stages = {Out};
  I.StageExtents = {{N, N}};
  I.OutputName = "Out";
  I.Work = 5.0 * static_cast<double>(N) * N;
  I.FillExpected = [N](const BenchmarkInstance &Inst) {
    const float *PI = Inst.data<float>("In");
    float *PE = Inst.expected<float>();
    int64_t W = N + 2;
    for (int64_t Y2 = 0; Y2 != N; ++Y2)
      for (int64_t X2 = 0; X2 != N; ++X2)
        PE[Y2 * N + X2] =
            0.2f * (PI[(Y2 + 1) * W + (X2 + 1)] + PI[(Y2 + 1) * W + X2] +
                    PI[(Y2 + 1) * W + (X2 + 2)] + PI[Y2 * W + (X2 + 1)] +
                    PI[(Y2 + 2) * W + (X2 + 1)]);
  };
  return I;
}

} // namespace

const std::vector<BenchmarkDef> &ltp::extendedBenchmarks() {
  static const std::vector<BenchmarkDef> Defs = {
      {"atax", "y = A^T (A x)", 1024, 4096, makeAtax},
      {"bicg", "s = r A; q = A p", 1024, 4096, makeBicg},
      {"mvt", "x1 = x1 + A y1", 1024, 4096, makeMvt},
      {"gemver", "rank-2 update + two matvecs", 1024, 4096, makeGemver},
      {"jacobi2d", "5-point Jacobi sweep (stencil)", 2048, 4096,
       makeJacobi2d},
  };
  return Defs;
}
