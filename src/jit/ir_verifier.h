// Generated-code contract verifier: a static check on every JIT module.
//
// LLVM's verifyModule proves the IR is *structurally* well-formed; it says
// nothing about whether the module honors the engine's code-generation
// contract. This pass does, rejecting modules that:
//
//   1. define a mutable global variable — generated code must be
//      position-independent and reentrant (N concurrent queries and N shards
//      share one compiled module); all per-query state flows through the
//      ctx/sink/params arguments, so any non-constant global is smuggled
//      mutable state and a codegen bug;
//   2. call an external symbol outside the proteus_* runtime C-ABI
//      (jit::RuntimeSymbols()) — the JIT dylib defines exactly that
//      whitelist, so any other external reference either fails to link or,
//      worse, binds to a process symbol codegen never meant to call
//      (llvm.* intrinsics are exempt: the JIT lowers them itself);
//   3. index the parameter table out of bounds — every ParamI64 load is a
//      constant GEP off the params argument, so in-bounds is statically
//      decidable against the module's ParamTable size;
//   4. deviate from the entry-point signatures the host calls through raw
//      function pointers:
//        proteus_build   (ctx, params)                 void(i8*, i8*)
//        proteus_pipeline(ctx, sink, params, beg, end) void(i8*,i8*,i8*,i64,i64)
//        proteus_drain<k>(ctx, sink, matched, params)  void(i8*,i8*,i8*,i8*)
//      — a mismatch is undefined behavior at the call boundary, invisible to
//      both compilers. Any other externally-visible definition is rejected
//      too: the module's public surface is exactly its entry points.
//
// Wired into CompileAndLink after verifyModule, before optimization, when
// ExecContext::verify_ir is set (EngineOptions::verify_ir — default on in
// debug builds). A violation is Status::Internal naming every offending
// symbol, semicolon-joined: it is a codegen bug, never valid output, so it
// fails the query instead of falling back to the interpreter.
#pragma once

#include <cstdint>

#include "src/common/status.h"

namespace llvm {
class Module;
}  // namespace llvm

namespace proteus {
namespace jit {

/// Checks `module` against the generated-code contract above.
/// `param_table_slots` is the module's ParamTable size — the exclusive upper
/// bound for constant parameter-table indices. Returns OK or an Internal
/// status listing every violation (semicolon-joined, symbol by symbol).
Status VerifyGeneratedModule(const llvm::Module& module, uint64_t param_table_slots);

}  // namespace jit
}  // namespace proteus
