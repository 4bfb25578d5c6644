//===- AccessProgram.cpp - compiled affine access streams ----------------===//

#include "cachesim/AccessProgram.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <set>

using namespace ltp;
using namespace ltp::ir;

//===----------------------------------------------------------------------===//
// ScalarFn evaluation
//===----------------------------------------------------------------------===//

int64_t ScalarFn::eval(const std::vector<int64_t> &Slots,
                       std::vector<int64_t> &Scratch) const {
  Scratch.clear();
  for (const Inst &I : Insts) {
    switch (I.Code) {
    case Op::PushConst:
      Scratch.push_back(I.Imm);
      continue;
    case Op::PushSlot:
      Scratch.push_back(Slots[static_cast<size_t>(I.Imm)]);
      continue;
    case Op::CastInt32:
      Scratch.back() = static_cast<int32_t>(Scratch.back());
      continue;
    case Op::CastUInt32:
      Scratch.back() =
          static_cast<int64_t>(static_cast<uint32_t>(Scratch.back()));
      continue;
    case Op::CastUInt8:
      Scratch.back() =
          static_cast<int64_t>(static_cast<uint8_t>(Scratch.back()));
      continue;
    case Op::CastBool:
      Scratch.back() = Scratch.back() != 0;
      continue;
    default:
      break;
    }
    int64_t B = Scratch.back();
    Scratch.pop_back();
    int64_t &A = Scratch.back();
    switch (I.Code) {
    case Op::Add:
      A += B;
      break;
    case Op::Sub:
      A -= B;
      break;
    case Op::Mul:
      A *= B;
      break;
    case Op::Div:
      assert(B != 0 && "integer division by zero");
      A /= B;
      break;
    case Op::Mod:
      assert(B != 0 && "integer modulo by zero");
      A %= B;
      break;
    case Op::Min:
      A = std::min(A, B);
      break;
    case Op::Max:
      A = std::max(A, B);
      break;
    case Op::BitAnd:
      A &= B;
      break;
    case Op::BitOr:
      A |= B;
      break;
    case Op::BitXor:
      A ^= B;
      break;
    case Op::LT:
      A = A < B;
      break;
    case Op::LE:
      A = A <= B;
      break;
    case Op::GT:
      A = A > B;
      break;
    case Op::GE:
      A = A >= B;
      break;
    case Op::EQ:
      A = A == B;
      break;
    case Op::NE:
      A = A != B;
      break;
    case Op::And:
      A = (A != 0) && (B != 0);
      break;
    case Op::Or:
      A = (A != 0) || (B != 0);
      break;
    default:
      assert(false && "malformed scalar program");
    }
  }
  assert(Scratch.size() == 1 && "scalar program must yield one value");
  return Scratch.back();
}

//===----------------------------------------------------------------------===//
// Compiler
//===----------------------------------------------------------------------===//

namespace {

/// Name -> slot scope stack; innermost binding wins on lookup.
struct CompileCtx {
  const std::map<std::string, BufferRef> &Buffers;
  std::vector<std::pair<std::string, int>> Scope;
  int NumSlots = 0;

  int lookup(const std::string &Name) const {
    for (auto It = Scope.rbegin(); It != Scope.rend(); ++It)
      if (It->first == Name)
        return It->second;
    return -1;
  }

  int push(const std::string &Name) {
    int Slot = NumSlots++;
    Scope.emplace_back(Name, Slot);
    return Slot;
  }

  void pop() { Scope.pop_back(); }
};

/// Result of compiling one statement: a node sequence plus whether any
/// escape sits inside it (drives the escape-to-loop escalation).
struct CompiledSeq {
  std::vector<ProgramNode> Nodes;
  bool ContainsEscape = false;
};

//===--- affine index expressions -----------------------------------------===//

std::optional<AffineFn> affineOf(const ExprPtr &E, const CompileCtx &Ctx) {
  switch (E->kind()) {
  case ExprKind::IntImm: {
    AffineFn F;
    F.Const = exprAs<IntImm>(E)->Value;
    return F;
  }
  case ExprKind::VarRef: {
    int Slot = Ctx.lookup(exprAs<VarRef>(E)->Name);
    if (Slot < 0)
      return std::nullopt;
    AffineFn F;
    F.Terms.push_back({Slot, 1});
    return F;
  }
  case ExprKind::Cast: {
    // Casts to Int64 are value-preserving for anything a loop variable
    // can hold; narrowing casts only fold when applied to a constant
    // (the truncation does not distribute over the affine terms).
    const Cast *C = exprAs<Cast>(E);
    if (C->type().isFloat())
      return std::nullopt;
    std::optional<AffineFn> V = affineOf(C->Value, Ctx);
    if (!V)
      return std::nullopt;
    if (C->type() == Type::int64())
      return V;
    if (!V->Terms.empty())
      return std::nullopt;
    switch (C->type().kind()) {
    case TypeKind::Int32:
      V->Const = static_cast<int32_t>(V->Const);
      return V;
    case TypeKind::UInt32:
      V->Const = static_cast<int64_t>(static_cast<uint32_t>(V->Const));
      return V;
    case TypeKind::UInt8:
      V->Const = static_cast<int64_t>(static_cast<uint8_t>(V->Const));
      return V;
    case TypeKind::Bool:
      V->Const = V->Const != 0;
      return V;
    default:
      return V;
    }
  }
  case ExprKind::Binary: {
    const Binary *B = exprAs<Binary>(E);
    std::optional<AffineFn> A = affineOf(B->A, Ctx);
    if (!A)
      return std::nullopt;
    std::optional<AffineFn> C = affineOf(B->B, Ctx);
    if (!C)
      return std::nullopt;
    auto Combine = [](const AffineFn &X, const AffineFn &Y,
                      int64_t Sign) {
      AffineFn R = X;
      R.Const += Sign * Y.Const;
      for (const AffineFn::Term &T : Y.Terms) {
        bool Merged = false;
        for (AffineFn::Term &RT : R.Terms)
          if (RT.Slot == T.Slot) {
            RT.Coef += Sign * T.Coef;
            Merged = true;
            break;
          }
        if (!Merged)
          R.Terms.push_back({T.Slot, Sign * T.Coef});
      }
      R.Terms.erase(std::remove_if(R.Terms.begin(), R.Terms.end(),
                                   [](const AffineFn::Term &T) {
                                     return T.Coef == 0;
                                   }),
                    R.Terms.end());
      return R;
    };
    switch (B->Op) {
    case BinOp::Add:
      return Combine(*A, *C, 1);
    case BinOp::Sub:
      return Combine(*A, *C, -1);
    case BinOp::Mul: {
      const AffineFn *Scale = C->Terms.empty() ? &*C : nullptr;
      const AffineFn *Base = Scale ? &*A : nullptr;
      if (!Scale && A->Terms.empty()) {
        Scale = &*A;
        Base = &*C;
      }
      if (!Scale)
        return std::nullopt; // slot * slot is not affine
      AffineFn R = *Base;
      R.Const *= Scale->Const;
      for (AffineFn::Term &T : R.Terms)
        T.Coef *= Scale->Const;
      if (Scale->Const == 0)
        R.Terms.clear();
      return R;
    }
    default:
      // Remaining integer ops only fold between constants.
      if (!A->Terms.empty() || !C->Terms.empty())
        return std::nullopt;
      AffineFn R;
      int64_t X = A->Const, Y = C->Const;
      switch (B->Op) {
      case BinOp::Div:
        if (Y == 0)
          return std::nullopt;
        R.Const = X / Y;
        return R;
      case BinOp::Mod:
        if (Y == 0)
          return std::nullopt;
        R.Const = X % Y;
        return R;
      case BinOp::Min:
        R.Const = std::min(X, Y);
        return R;
      case BinOp::Max:
        R.Const = std::max(X, Y);
        return R;
      default:
        return std::nullopt;
      }
    }
  }
  case ExprKind::FloatImm:
  case ExprKind::Load:
  case ExprKind::Select:
    return std::nullopt;
  }
  return std::nullopt;
}

//===--- scalar bound / let expressions -----------------------------------===//

bool emitScalar(const ExprPtr &E, const CompileCtx &Ctx, ScalarFn &Out) {
  if (E->type().isFloat())
    return false;
  switch (E->kind()) {
  case ExprKind::IntImm:
    Out.Insts.push_back({ScalarFn::Op::PushConst, exprAs<IntImm>(E)->Value});
    return true;
  case ExprKind::VarRef: {
    int Slot = Ctx.lookup(exprAs<VarRef>(E)->Name);
    if (Slot < 0)
      return false;
    Out.Insts.push_back({ScalarFn::Op::PushSlot, Slot});
    return true;
  }
  case ExprKind::Cast: {
    const Cast *C = exprAs<Cast>(E);
    if (C->Value->type().isFloat() || !emitScalar(C->Value, Ctx, Out))
      return false;
    switch (C->type().kind()) {
    case TypeKind::Int32:
      Out.Insts.push_back({ScalarFn::Op::CastInt32, 0});
      return true;
    case TypeKind::UInt32:
      Out.Insts.push_back({ScalarFn::Op::CastUInt32, 0});
      return true;
    case TypeKind::UInt8:
      Out.Insts.push_back({ScalarFn::Op::CastUInt8, 0});
      return true;
    case TypeKind::Bool:
      Out.Insts.push_back({ScalarFn::Op::CastBool, 0});
      return true;
    default:
      return true; // Int64: value-preserving
    }
  }
  case ExprKind::Binary: {
    const Binary *B = exprAs<Binary>(E);
    if (B->A->type().isFloat() || B->B->type().isFloat())
      return false;
    if (!emitScalar(B->A, Ctx, Out) || !emitScalar(B->B, Ctx, Out))
      return false;
    switch (B->Op) {
    case BinOp::Add:
      Out.Insts.push_back({ScalarFn::Op::Add, 0});
      return true;
    case BinOp::Sub:
      Out.Insts.push_back({ScalarFn::Op::Sub, 0});
      return true;
    case BinOp::Mul:
      Out.Insts.push_back({ScalarFn::Op::Mul, 0});
      return true;
    case BinOp::Div:
      Out.Insts.push_back({ScalarFn::Op::Div, 0});
      return true;
    case BinOp::Mod:
      Out.Insts.push_back({ScalarFn::Op::Mod, 0});
      return true;
    case BinOp::Min:
      Out.Insts.push_back({ScalarFn::Op::Min, 0});
      return true;
    case BinOp::Max:
      Out.Insts.push_back({ScalarFn::Op::Max, 0});
      return true;
    case BinOp::BitAnd:
      Out.Insts.push_back({ScalarFn::Op::BitAnd, 0});
      return true;
    case BinOp::BitOr:
      Out.Insts.push_back({ScalarFn::Op::BitOr, 0});
      return true;
    case BinOp::BitXor:
      Out.Insts.push_back({ScalarFn::Op::BitXor, 0});
      return true;
    case BinOp::LT:
      Out.Insts.push_back({ScalarFn::Op::LT, 0});
      return true;
    case BinOp::LE:
      Out.Insts.push_back({ScalarFn::Op::LE, 0});
      return true;
    case BinOp::GT:
      Out.Insts.push_back({ScalarFn::Op::GT, 0});
      return true;
    case BinOp::GE:
      Out.Insts.push_back({ScalarFn::Op::GE, 0});
      return true;
    case BinOp::EQ:
      Out.Insts.push_back({ScalarFn::Op::EQ, 0});
      return true;
    case BinOp::NE:
      Out.Insts.push_back({ScalarFn::Op::NE, 0});
      return true;
    case BinOp::And:
      Out.Insts.push_back({ScalarFn::Op::And, 0});
      return true;
    case BinOp::Or:
      Out.Insts.push_back({ScalarFn::Op::Or, 0});
      return true;
    }
    return false;
  }
  case ExprKind::FloatImm:
  case ExprKind::Load:
    return false;
  case ExprKind::Select:
    // The interpreter evaluates only the taken arm; an eager stack
    // machine would evaluate both, which can differ observably (e.g. a
    // division guarded by the condition). Escape instead.
    return false;
  }
  return false;
}

std::optional<ScalarFn> scalarOf(const ExprPtr &E, const CompileCtx &Ctx) {
  ScalarFn F;
  if (!emitScalar(E, Ctx, F))
    return std::nullopt;
  return F;
}

//===--- per-statement compilation ----------------------------------------===//

/// Byte-address function of a load/store with load-free affine indices.
std::optional<AffineFn> addressOf(const std::string &BufferName,
                                  const std::vector<ExprPtr> &Indices,
                                  const CompileCtx &Ctx) {
  auto It = Ctx.Buffers.find(BufferName);
  if (It == Ctx.Buffers.end())
    return std::nullopt;
  const BufferRef &Buf = It->second;
  if (Indices.size() != Buf.Extents.size())
    return std::nullopt;
  assert(Buf.Data && "simulated buffer has no data (definition-only)");
  int64_t ElemBytes = Buf.ElemType.bytes();
  AffineFn Addr;
  Addr.Const = static_cast<int64_t>(reinterpret_cast<uintptr_t>(Buf.Data));
  for (size_t D = 0; D != Indices.size(); ++D) {
    std::optional<AffineFn> Index = affineOf(Indices[D], Ctx);
    if (!Index)
      return std::nullopt;
    int64_t Scale = Buf.Strides[D] * ElemBytes;
    Addr.Const += Index->Const * Scale;
    for (const AffineFn::Term &T : Index->Terms) {
      bool Merged = false;
      for (AffineFn::Term &AT : Addr.Terms)
        if (AT.Slot == T.Slot) {
          AT.Coef += T.Coef * Scale;
          Merged = true;
          break;
        }
      if (!Merged)
        Addr.Terms.push_back({T.Slot, T.Coef * Scale});
    }
  }
  Addr.Terms.erase(std::remove_if(Addr.Terms.begin(), Addr.Terms.end(),
                                  [](const AffineFn::Term &T) {
                                    return T.Coef == 0;
                                  }),
                   Addr.Terms.end());
  return Addr;
}

/// True when any Load appears in \p E.
bool containsLoad(const ExprPtr &E) {
  switch (E->kind()) {
  case ExprKind::Load:
    return true;
  case ExprKind::Binary: {
    const Binary *B = exprAs<Binary>(E);
    return containsLoad(B->A) || containsLoad(B->B);
  }
  case ExprKind::Cast:
    return containsLoad(exprAs<Cast>(E)->Value);
  case ExprKind::Select: {
    const Select *S = exprAs<Select>(E);
    return containsLoad(S->Cond) || containsLoad(S->TrueValue) ||
           containsLoad(S->FalseValue);
  }
  default:
    return false;
  }
}

/// Appends the loads of \p E to \p Ops in the interpreter's evaluation
/// order (depth-first, left operand before right). Returns false when
/// the trace cannot be predicted statically: a Select containing loads
/// (only the taken arm's loads are traced) or a load with non-affine /
/// load-bearing indices.
bool collectValueLoads(const ExprPtr &E, const CompileCtx &Ctx,
                       std::vector<AccessOp> &Ops) {
  switch (E->kind()) {
  case ExprKind::IntImm:
  case ExprKind::FloatImm:
  case ExprKind::VarRef:
    return true;
  case ExprKind::Load: {
    const Load *L = exprAs<Load>(E);
    for (const ExprPtr &Index : L->Indices)
      if (containsLoad(Index))
        return false;
    std::optional<AffineFn> Addr = addressOf(L->BufferName, L->Indices, Ctx);
    if (!Addr)
      return false;
    auto It = Ctx.Buffers.find(L->BufferName);
    Ops.push_back({AccessKind::Load, std::move(*Addr),
                   static_cast<uint32_t>(It->second.ElemType.bytes())});
    return true;
  }
  case ExprKind::Binary: {
    const Binary *B = exprAs<Binary>(E);
    return collectValueLoads(B->A, Ctx, Ops) &&
           collectValueLoads(B->B, Ctx, Ops);
  }
  case ExprKind::Cast:
    return collectValueLoads(exprAs<Cast>(E)->Value, Ctx, Ops);
  case ExprKind::Select:
    return !containsLoad(E);
  }
  return false;
}

std::optional<ProgramNode> compileStore(const Store *St, CompileCtx &Ctx) {
  for (const ExprPtr &Index : St->Indices)
    if (containsLoad(Index))
      return std::nullopt;
  std::optional<AffineFn> Addr = addressOf(St->BufferName, St->Indices, Ctx);
  if (!Addr)
    return std::nullopt;
  ProgramNode Node;
  Node.NodeKind = ProgramNode::Kind::Accesses;
  // Interpreter order: index expressions first (load-free by the check
  // above), then the value's loads, then the store event itself.
  if (!collectValueLoads(St->Value, Ctx, Node.Ops))
    return std::nullopt;
  auto It = Ctx.Buffers.find(St->BufferName);
  Node.Ops.push_back(
      {St->NonTemporal ? AccessKind::NonTemporalStore : AccessKind::Store,
       std::move(*Addr), static_cast<uint32_t>(It->second.ElemType.bytes())});
  Node.StoreBuffers.push_back(St->BufferName);
  return Node;
}

ProgramNode makeEscape(const StmtPtr &S, CompileCtx &Ctx) {
  ProgramNode Node;
  Node.NodeKind = ProgramNode::Kind::Escape;
  Node.EscapeStmt = S;
  // Innermost-first so shadowed outer bindings are skipped.
  std::set<std::string> Seen;
  for (auto It = Ctx.Scope.rbegin(); It != Ctx.Scope.rend(); ++It)
    if (Seen.insert(It->first).second)
      Node.EscapeBindings.push_back(*It);
  return Node;
}

CompiledSeq compileStmt(const StmtPtr &S, CompileCtx &Ctx);

CompiledSeq escapeSeq(const StmtPtr &S, CompileCtx &Ctx) {
  CompiledSeq Seq;
  Seq.Nodes.push_back(makeEscape(S, Ctx));
  Seq.ContainsEscape = true;
  return Seq;
}

CompiledSeq compileStmt(const StmtPtr &S, CompileCtx &Ctx) {
  switch (S->kind()) {
  case StmtKind::For: {
    const For *F = stmtAs<For>(S);
    std::optional<ScalarFn> Min = scalarOf(F->Min, Ctx);
    std::optional<ScalarFn> Extent = scalarOf(F->Extent, Ctx);
    if (!Min || !Extent)
      return escapeSeq(S, Ctx);
    ProgramNode Node;
    Node.NodeKind = ProgramNode::Kind::Loop;
    Node.Min = std::move(*Min);
    Node.Extent = std::move(*Extent);
    Node.Slot = Ctx.push(F->VarName);
    CompiledSeq Body = compileStmt(F->Body, Ctx);
    Ctx.pop();
    // Escalate: an escape inside a compiled loop would re-enter the
    // interpreter once per iteration, which is slower than interpreting
    // the loop outright — and it keeps escapes at most-once-per-run,
    // which the garbage analysis below relies on.
    if (Body.ContainsEscape)
      return escapeSeq(S, Ctx);
    Node.Body = std::move(Body.Nodes);
    CompiledSeq Seq;
    Seq.Nodes.push_back(std::move(Node));
    return Seq;
  }
  case StmtKind::LetStmt: {
    const LetStmt *L = stmtAs<LetStmt>(S);
    std::optional<ScalarFn> Value = scalarOf(L->Value, Ctx);
    if (!Value)
      return escapeSeq(S, Ctx);
    ProgramNode Node;
    Node.NodeKind = ProgramNode::Kind::Let;
    Node.Value = std::move(*Value);
    Node.Slot = Ctx.push(L->Name);
    CompiledSeq Body = compileStmt(L->Body, Ctx);
    Ctx.pop();
    Node.Body = std::move(Body.Nodes);
    CompiledSeq Seq;
    Seq.Nodes.push_back(std::move(Node));
    Seq.ContainsEscape = Body.ContainsEscape;
    return Seq;
  }
  case StmtKind::Store: {
    const Store *St = stmtAs<Store>(S);
    if (std::optional<ProgramNode> Node = compileStore(St, Ctx)) {
      CompiledSeq Seq;
      Seq.Nodes.push_back(std::move(*Node));
      return Seq;
    }
    return escapeSeq(S, Ctx);
  }
  case StmtKind::IfThenElse:
    // Predicated statements (rdom.where, boundary conditions) take the
    // interpreter path.
    return escapeSeq(S, Ctx);
  case StmtKind::Block: {
    CompiledSeq Seq;
    for (const StmtPtr &Child : stmtAs<Block>(S)->Stmts) {
      CompiledSeq Sub = compileStmt(Child, Ctx);
      for (ProgramNode &N : Sub.Nodes)
        Seq.Nodes.push_back(std::move(N));
      Seq.ContainsEscape |= Sub.ContainsEscape;
    }
    return Seq;
  }
  }
  return escapeSeq(S, Ctx);
}

//===--- escape safety analysis -------------------------------------------===//

/// Buffer-name sets describing what an escaped subtree can observe.
struct EscapeSets {
  /// Buffers whose loaded *values* can steer the trace: loads feeding
  /// loop bounds, let values, if/select conditions or index expressions.
  std::set<std::string> TraceLoads;
  /// Buffers loaded anywhere (value positions included).
  std::set<std::string> ValueLoads;
  /// Buffers stored to.
  std::set<std::string> Stores;
};

void allLoadsInto(const ExprPtr &E, std::set<std::string> &Out) {
  switch (E->kind()) {
  case ExprKind::Load: {
    const Load *L = exprAs<Load>(E);
    Out.insert(L->BufferName);
    for (const ExprPtr &Index : L->Indices)
      allLoadsInto(Index, Out);
    return;
  }
  case ExprKind::Binary: {
    const Binary *B = exprAs<Binary>(E);
    allLoadsInto(B->A, Out);
    allLoadsInto(B->B, Out);
    return;
  }
  case ExprKind::Cast:
    allLoadsInto(exprAs<Cast>(E)->Value, Out);
    return;
  case ExprKind::Select: {
    const Select *Sel = exprAs<Select>(E);
    allLoadsInto(Sel->Cond, Out);
    allLoadsInto(Sel->TrueValue, Out);
    allLoadsInto(Sel->FalseValue, Out);
    return;
  }
  default:
    return;
  }
}

void collectEscapeExpr(const ExprPtr &E, EscapeSets &Sets) {
  switch (E->kind()) {
  case ExprKind::Load: {
    const Load *L = exprAs<Load>(E);
    Sets.ValueLoads.insert(L->BufferName);
    // Loads inside index expressions determine *addresses*.
    for (const ExprPtr &Index : L->Indices)
      allLoadsInto(Index, Sets.TraceLoads);
    return;
  }
  case ExprKind::Binary: {
    const Binary *B = exprAs<Binary>(E);
    collectEscapeExpr(B->A, Sets);
    collectEscapeExpr(B->B, Sets);
    return;
  }
  case ExprKind::Cast:
    collectEscapeExpr(exprAs<Cast>(E)->Value, Sets);
    return;
  case ExprKind::Select: {
    const Select *Sel = exprAs<Select>(E);
    // The condition decides which arm's loads are traced.
    allLoadsInto(Sel->Cond, Sets.TraceLoads);
    collectEscapeExpr(Sel->TrueValue, Sets);
    collectEscapeExpr(Sel->FalseValue, Sets);
    return;
  }
  default:
    return;
  }
}

void collectEscapeStmt(const StmtPtr &S, EscapeSets &Sets) {
  switch (S->kind()) {
  case StmtKind::For: {
    const For *F = stmtAs<For>(S);
    allLoadsInto(F->Min, Sets.TraceLoads);
    allLoadsInto(F->Extent, Sets.TraceLoads);
    collectEscapeStmt(F->Body, Sets);
    return;
  }
  case StmtKind::Store: {
    const Store *St = stmtAs<Store>(S);
    Sets.Stores.insert(St->BufferName);
    for (const ExprPtr &Index : St->Indices)
      allLoadsInto(Index, Sets.TraceLoads);
    collectEscapeExpr(St->Value, Sets);
    return;
  }
  case StmtKind::LetStmt: {
    const LetStmt *L = stmtAs<LetStmt>(S);
    // A let value can flow into indices or bounds downstream.
    allLoadsInto(L->Value, Sets.TraceLoads);
    collectEscapeStmt(L->Body, Sets);
    return;
  }
  case StmtKind::IfThenElse: {
    const IfThenElse *I = stmtAs<IfThenElse>(S);
    allLoadsInto(I->Cond, Sets.TraceLoads);
    collectEscapeStmt(I->Then, Sets);
    if (I->Else)
      collectEscapeStmt(I->Else, Sets);
    return;
  }
  case StmtKind::Block:
    for (const StmtPtr &Child : stmtAs<Block>(S)->Stmts)
      collectEscapeStmt(Child, Sets);
    return;
  }
}

bool intersects(const std::set<std::string> &A,
                const std::set<std::string> &B) {
  for (const std::string &X : A)
    if (B.contains(X))
      return true;
  return false;
}

/// The fast path never writes buffer elements, so every buffer a
/// compiled store targets holds garbage afterwards; garbage propagates
/// through escaped stores whose inputs read it. If an escape's *trace*
/// (bounds, conditions, addresses) could observe garbage, the whole
/// program must fall back to the interpreter. Walks the nodes in
/// execution order; escalation guarantees escapes sit outside compiled
/// loops, so a single sequential pass is exact.
bool garbageSafe(const std::vector<ProgramNode> &Nodes,
                 std::set<std::string> &Garbage) {
  for (const ProgramNode &Node : Nodes) {
    switch (Node.NodeKind) {
    case ProgramNode::Kind::Accesses:
      for (const std::string &B : Node.StoreBuffers)
        Garbage.insert(B);
      break;
    case ProgramNode::Kind::Loop:
    case ProgramNode::Kind::Let:
      if (!garbageSafe(Node.Body, Garbage))
        return false;
      break;
    case ProgramNode::Kind::Escape: {
      EscapeSets Sets;
      collectEscapeStmt(Node.EscapeStmt, Sets);
      if (intersects(Sets.TraceLoads, Garbage))
        return false;
      if (intersects(Sets.ValueLoads, Garbage))
        for (const std::string &B : Sets.Stores)
          Garbage.insert(B);
      break;
    }
    }
  }
  return true;
}

/// Escape nodes surviving in the final tree. Escalation may mint several
/// intermediate escapes while hoisting one out of a loop nest, so the
/// compile-time counter overstates what actually executes.
size_t countEscapes(const std::vector<ProgramNode> &Nodes) {
  size_t N = 0;
  for (const ProgramNode &Node : Nodes) {
    if (Node.NodeKind == ProgramNode::Kind::Escape)
      ++N;
    N += countEscapes(Node.Body);
  }
  return N;
}

} // namespace

std::optional<AccessProgram>
ltp::compileAccessProgram(const std::vector<ir::StmtPtr> &Stmts,
                          const std::map<std::string, BufferRef> &Buffers) {
  CompileCtx Ctx{Buffers, {}, 0};
  AccessProgram Program;
  for (const StmtPtr &S : Stmts) {
    if (!S)
      return std::nullopt;
    CompiledSeq Seq = compileStmt(S, Ctx);
    for (ProgramNode &N : Seq.Nodes)
      Program.Roots.push_back(std::move(N));
  }
  Program.NumSlots = Ctx.NumSlots;
  Program.Escapes = countEscapes(Program.Roots);
  std::set<std::string> Garbage;
  if (!garbageSafe(Program.Roots, Garbage))
    return std::nullopt;
  return Program;
}

//===----------------------------------------------------------------------===//
// Executor
//===----------------------------------------------------------------------===//

namespace {

struct ExecState {
  MemoryHierarchy &Hierarchy;
  const std::map<std::string, BufferRef> &Buffers;
  std::vector<int64_t> Slots;
  std::vector<int64_t> Scratch;
  std::vector<int64_t> Base;   // per-op window base addresses
  std::vector<int64_t> Stride; // per-op per-iteration strides
  std::vector<uint64_t> DemandLines; // demand lines of the current window
  int64_t LineBytes;
  uint64_t Accesses = 0;

  void issue(AccessKind Kind, uint64_t Address, uint32_t Size) {
    ++Accesses;
    switch (Kind) {
    case AccessKind::Load:
      Hierarchy.load(Address, Size);
      return;
    case AccessKind::Store:
      Hierarchy.store(Address, Size, /*NonTemporal=*/false);
      return;
    case AccessKind::NonTemporalStore:
      Hierarchy.store(Address, Size, /*NonTemporal=*/true);
      return;
    }
  }
};

/// Number of consecutive iterations (starting with the current one, with
/// addresses advancing by \p Stride) for which an access of \p Size at
/// \p Addr stays within its current cache line.
int64_t sameLineRun(int64_t Addr, uint32_t Size, int64_t Stride,
                    int64_t LineBytes) {
  int64_t Off = Addr % LineBytes; // line size need not be a power of two
  if (Off + static_cast<int64_t>(Size) > LineBytes)
    return 1; // spans two lines: run element-wise
  if (Stride == 0)
    return std::numeric_limits<int64_t>::max();
  if (Stride > 0)
    return (LineBytes - Off - static_cast<int64_t>(Size)) / Stride + 1;
  return Off / -Stride + 1;
}

void execList(const std::vector<ProgramNode> &Nodes, ExecState &State);

/// Innermost loop over a single access sequence: issue each iteration's
/// accesses element-wise, then retire the rest of the same-line window
/// in O(1) when every repeat is provably a pure L1 hit (see the header
/// comment for the equivalence argument).
void execBatchedLoop(const ProgramNode &Body, int LoopSlot, int64_t Min,
                     int64_t Extent, ExecState &State) {
  const std::vector<AccessOp> &Ops = Body.Ops;
  size_t NumOps = Ops.size();
  State.Base.resize(NumOps);
  State.Stride.resize(NumOps);
  State.Slots[LoopSlot] = Min;
  uint64_t DemandOps = 0;
  bool HasNT = false;
  for (size_t K = 0; K != NumOps; ++K) {
    State.Base[K] = Ops[K].AddressBytes.eval(State.Slots);
    State.Stride[K] = Ops[K].AddressBytes.coefOf(LoopSlot);
    if (Ops[K].Kind == AccessKind::NonTemporalStore)
      HasNT = true;
    else
      ++DemandOps;
  }
  const int64_t LB = State.LineBytes;
  for (int64_t I = 0; I < Extent;) {
    // One element-wise iteration establishes residency, recency order,
    // dirty bits and prefetch state for the whole window.
    int64_t Window = Extent - I;
    for (size_t K = 0; K != NumOps; ++K) {
      int64_t Addr = State.Base[K] + State.Stride[K] * I;
      State.issue(Ops[K].Kind, static_cast<uint64_t>(Addr), Ops[K].SizeBytes);
      Window = std::min(
          Window, sameLineRun(Addr, Ops[K].SizeBytes, State.Stride[K], LB));
    }
    if (Window <= 1) {
      ++I;
      continue;
    }
    bool Ready = true;
    State.DemandLines.clear();
    for (size_t K = 0; K != NumOps && Ready; ++K) {
      if (Ops[K].Kind == AccessKind::NonTemporalStore)
        continue;
      int64_t Line = (State.Base[K] + State.Stride[K] * I) / LB;
      Ready = State.Hierarchy.repeatHitReady(static_cast<uint64_t>(Line));
      State.DemandLines.push_back(static_cast<uint64_t>(Line));
    }
    if (Ready && HasNT) {
      // A repeated NT store invalidates its line; that is only free of
      // demand-visible effects when no demand op depends on that line
      // or its next-line-prefetch successor.
      for (size_t K = 0; K != NumOps && Ready; ++K) {
        if (Ops[K].Kind != AccessKind::NonTemporalStore)
          continue;
        int64_t NTLine = (State.Base[K] + State.Stride[K] * I) / LB;
        for (size_t J = 0; J != NumOps && Ready; ++J) {
          if (Ops[J].Kind == AccessKind::NonTemporalStore)
            continue;
          int64_t DLine = (State.Base[J] + State.Stride[J] * I) / LB;
          Ready = NTLine != DLine && NTLine != DLine + 1;
        }
      }
    }
    if (!Ready) {
      ++I;
      continue;
    }
    uint64_t Repeats = static_cast<uint64_t>(Window - 1);
#ifdef LTP_PARANOID_BATCH
    {
      HierarchyStats Before = State.Hierarchy.stats();
      for (int64_t R = I + 1; R < I + Window; ++R)
        for (size_t K = 0; K != NumOps; ++K)
          State.issue(Ops[K].Kind,
                      static_cast<uint64_t>(State.Base[K] + State.Stride[K] * R),
                      Ops[K].SizeBytes);
      HierarchyStats After = State.Hierarchy.stats();
      bool Pure =
          After.L1.DemandHits == Before.L1.DemandHits + DemandOps * Repeats &&
          After.L1.DemandMisses == Before.L1.DemandMisses &&
          After.L1.PrefetchFills == Before.L1.PrefetchFills &&
          After.L1.PrefetchHits == Before.L1.PrefetchHits &&
          After.PrefetchIssuedL1 == Before.PrefetchIssuedL1 &&
          After.PrefetchIssuedL2 == Before.PrefetchIssuedL2 &&
          After.NonTemporalStores ==
              Before.NonTemporalStores + (HasNT ? Repeats : 0);
      if (!Pure) {
        std::fprintf(stderr,
                     "IMPURE window: I=%lld Window=%lld NumOps=%zu "
                     "DemandOps=%llu\n",
                     (long long)I, (long long)Window, NumOps,
                     (unsigned long long)DemandOps);
        for (size_t K = 0; K != NumOps; ++K)
          std::fprintf(stderr,
                       "  op%zu kind=%d base=%lld stride=%lld line=%lld\n", K,
                       (int)Ops[K].Kind,
                       (long long)State.Base[K], (long long)State.Stride[K],
                       (long long)((State.Base[K] + State.Stride[K] * I) / LB));
        std::fprintf(stderr,
                     "  dHit %llu->%llu dMiss %llu->%llu pfIss %llu->%llu "
                     "pfFill %llu->%llu pfHit %llu->%llu\n",
                     (unsigned long long)Before.L1.DemandHits,
                     (unsigned long long)After.L1.DemandHits,
                     (unsigned long long)Before.L1.DemandMisses,
                     (unsigned long long)After.L1.DemandMisses,
                     (unsigned long long)Before.PrefetchIssuedL1,
                     (unsigned long long)After.PrefetchIssuedL1,
                     (unsigned long long)Before.L1.PrefetchFills,
                     (unsigned long long)After.L1.PrefetchFills,
                     (unsigned long long)Before.L1.PrefetchHits,
                     (unsigned long long)After.L1.PrefetchHits);
        std::abort();
      }
      State.Accesses += NumOps * Repeats;
      I += Window;
      continue;
    }
#endif
    if (DemandOps)
      State.Hierarchy.retireRepeatHits(State.DemandLines.data(),
                                       State.DemandLines.size(), Repeats);
    if (HasNT)
      for (size_t K = 0; K != NumOps; ++K) {
        if (Ops[K].Kind != AccessKind::NonTemporalStore)
          continue;
        int64_t NTLine = (State.Base[K] + State.Stride[K] * I) / LB;
        State.Hierarchy.retireRepeatNonTemporal(
            static_cast<uint64_t>(NTLine), Repeats,
            static_cast<uint64_t>(Ops[K].SizeBytes) * Repeats);
      }
    State.Accesses += NumOps * Repeats;
    I += Window;
  }
}

void execNode(const ProgramNode &Node, ExecState &State) {
  switch (Node.NodeKind) {
  case ProgramNode::Kind::Loop: {
    int64_t Min = Node.Min.eval(State.Slots, State.Scratch);
    int64_t Extent = Node.Extent.eval(State.Slots, State.Scratch);
    if (Extent <= 0)
      return;
    if (Node.Body.size() == 1 &&
        Node.Body[0].NodeKind == ProgramNode::Kind::Accesses) {
      execBatchedLoop(Node.Body[0], Node.Slot, Min, Extent, State);
      return;
    }
    for (int64_t I = Min; I != Min + Extent; ++I) {
      State.Slots[Node.Slot] = I;
      execList(Node.Body, State);
    }
    return;
  }
  case ProgramNode::Kind::Let:
    State.Slots[Node.Slot] = Node.Value.eval(State.Slots, State.Scratch);
    execList(Node.Body, State);
    return;
  case ProgramNode::Kind::Accesses:
    for (const AccessOp &Op : Node.Ops)
      State.issue(Op.Kind,
                  static_cast<uint64_t>(Op.AddressBytes.eval(State.Slots)),
                  Op.SizeBytes);
    return;
  case ProgramNode::Kind::Escape: {
    InterpOptions Options;
    for (const auto &[Name, Slot] : Node.EscapeBindings)
      Options.InitialScalars[Name] = State.Slots[Slot];
    Options.Hook = [&State](AccessKind Kind, uint64_t Address,
                            uint32_t Size) { State.issue(Kind, Address, Size); };
    interpret(Node.EscapeStmt, State.Buffers, Options);
    return;
  }
  }
}

void execList(const std::vector<ProgramNode> &Nodes, ExecState &State) {
  for (const ProgramNode &Node : Nodes)
    execNode(Node, State);
}

} // namespace

uint64_t
AccessProgram::run(MemoryHierarchy &Hierarchy,
                   const std::map<std::string, BufferRef> &Buffers) const {
  ExecState State{Hierarchy, Buffers, std::vector<int64_t>(
                                          static_cast<size_t>(NumSlots), 0),
                  {},       {},      {},
                  {},       Hierarchy.lineBytes()};
  execList(Roots, State);
  return State.Accesses;
}
