#include "src/jit/ir_verifier.h"

#include <string>
#include <unordered_set>
#include <vector>

#include <llvm/IR/Constants.h>
#include <llvm/IR/Function.h>
#include <llvm/IR/Instructions.h>
#include <llvm/IR/Module.h>

#include "src/jit/runtime.h"

namespace proteus {
namespace jit {

namespace {

/// The runtime C-ABI whitelist, keyed by name. Built from RuntimeSymbols()
/// — the same registry CompileAndLink defines into the JIT dylib — so the
/// verifier can never drift from what actually links.
const std::unordered_set<std::string>& WhitelistedExterns() {
  static const std::unordered_set<std::string>* set = [] {
    auto* s = new std::unordered_set<std::string>();
    for (const auto& [name, addr] : RuntimeSymbols()) s->insert(name);
    return s;
  }();
  return *set;
}

/// True for "proteus_drain<k>" with a non-empty all-digit suffix.
bool IsDrainName(llvm::StringRef name) {
  if (!name.consume_front("proteus_drain")) return false;
  if (name.empty()) return false;
  for (char c : name) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

/// Index of the parameter-table argument for a recognized entry point, or
/// -1 when `name` is not an entry point.
int ParamsArgIndex(llvm::StringRef name) {
  if (name == "proteus_build") return 1;
  if (name == "proteus_pipeline") return 2;
  if (IsDrainName(name)) return 3;
  return -1;
}

/// The exact FunctionType the host calls `name` through, or null for
/// non-entry-point names. Types are uniqued per LLVMContext, so pointer
/// equality against Function::getFunctionType() is an exact signature check.
llvm::FunctionType* ExpectedEntryType(llvm::StringRef name, llvm::LLVMContext& ctx) {
  auto* i8p = llvm::Type::getInt8PtrTy(ctx);
  auto* i64 = llvm::Type::getInt64Ty(ctx);
  auto* voidty = llvm::Type::getVoidTy(ctx);
  if (name == "proteus_build") {
    return llvm::FunctionType::get(voidty, {i8p, i8p}, false);
  }
  if (name == "proteus_pipeline") {
    return llvm::FunctionType::get(voidty, {i8p, i8p, i8p, i64, i64}, false);
  }
  if (IsDrainName(name)) {
    return llvm::FunctionType::get(voidty, {i8p, i8p, i8p, i8p}, false);
  }
  return nullptr;
}

/// Collects every statically-known parameter-table index reachable from the
/// entry point's params argument: codegen emits `bitcast params to i64*`
/// followed by constant single-index GEPs (ParamI64), so the walk is
/// arg -> bitcasts -> GEPs/loads.
void CheckParamIndices(const llvm::Function& fn, int params_arg,
                       uint64_t param_table_slots, std::vector<std::string>* violations) {
  if (static_cast<unsigned>(params_arg) >= fn.arg_size()) return;
  const llvm::Value* arg = fn.getArg(static_cast<unsigned>(params_arg));

  auto note = [&](uint64_t slot) {
    if (slot < param_table_slots) return;
    violations->push_back(fn.getName().str() + ": param-table index " +
                          std::to_string(slot) + " out of bounds (table has " +
                          std::to_string(param_table_slots) + " slot(s))");
  };
  auto check_pointer_uses = [&](const llvm::Value* ptr) {
    for (const llvm::User* u : ptr->users()) {
      if (const auto* gep = llvm::dyn_cast<llvm::GetElementPtrInst>(u)) {
        if (gep->getPointerOperand() != ptr) continue;
        if (gep->getNumIndices() != 1) continue;
        if (const auto* ci = llvm::dyn_cast<llvm::ConstantInt>(gep->getOperand(1))) {
          note(ci->getZExtValue());
        }
      } else if (llvm::isa<llvm::LoadInst>(u)) {
        // A load straight off the table pointer is slot 0.
        note(0);
      }
    }
  };
  for (const llvm::User* u : arg->users()) {
    if (const auto* bc = llvm::dyn_cast<llvm::BitCastInst>(u)) {
      check_pointer_uses(bc);
    }
  }
  check_pointer_uses(arg);  // opaque-pointer form: GEPs directly on the arg
}

}  // namespace

Status VerifyGeneratedModule(const llvm::Module& module, uint64_t param_table_slots) {
  std::vector<std::string> violations;

  // Rule 1: no mutable globals. Codegen only ever creates private constant
  // data (string literals); anything writable is smuggled cross-query state.
  for (const llvm::GlobalVariable& g : module.globals()) {
    if (!g.isConstant()) {
      violations.push_back("mutable global variable: " +
                           (g.hasName() ? g.getName().str() : std::string("<unnamed>")));
    }
  }

  for (const llvm::Function& fn : module.functions()) {
    const llvm::StringRef name = fn.getName();
    if (fn.isDeclaration()) {
      // Rule 2: external references must be runtime C-ABI symbols (or LLVM
      // intrinsics, which the JIT lowers internally).
      if (name.startswith("llvm.")) continue;
      if (WhitelistedExterns().count(name.str()) == 0) {
        violations.push_back("call to non-whitelisted external symbol: " + name.str());
      }
      continue;
    }
    llvm::FunctionType* expected =
        ExpectedEntryType(name, const_cast<llvm::Module&>(module).getContext());
    if (expected == nullptr) {
      // Rule 4b: the module's public surface is exactly its entry points.
      if (!fn.hasLocalLinkage()) {
        violations.push_back("unexpected externally-visible definition: " + name.str());
      }
      continue;
    }
    // Rule 4a: exact entry-point signature.
    if (fn.getFunctionType() != expected) {
      violations.push_back("entry point " + name.str() +
                           " deviates from its contract signature");
      continue;  // the params argument may not even exist
    }
    // Rule 3: constant parameter-table indices in bounds.
    CheckParamIndices(fn, ParamsArgIndex(name), param_table_slots, &violations);
  }

  if (violations.empty()) return Status::OK();
  std::string joined;
  for (const std::string& v : violations) {
    if (!joined.empty()) joined += "; ";
    joined += v;
  }
  return Status::Internal("jit: generated module violates the codegen contract: " +
                          joined);
}

}  // namespace jit
}  // namespace proteus
