// One ORC session for every compiled module of the process.
//
// A session costs host detection, a target machine and a runtime symbol
// table to build, so the process builds one, on the first link, and never
// tears it down: no module can outlive it. It holds one compile layer over one
// object linking layer, and one runtime dylib that defines
// jit::RuntimeSymbols() once. The compile layer generates machine code for
// one module at a time on one target machine; IR generation and
// optimization, which run before, and linking, which runs after, proceed
// concurrently.
//
// Each module gets its own JITDylib, linked against the runtime dylib. The
// module's LinkedCode owns that dylib: destroying it (LRU eviction,
// CompiledQueryCache::EraseReading, the last shared_ptr of a CompiledModule
// going away) removes the dylib and frees its machine code. Links, lookups
// and removals are thread-safe against each other.
#pragma once

#include <memory>
#include <string>

#include "src/common/status.h"

namespace llvm {
class LLVMContext;
class Module;
namespace orc {
class JITDylib;
}  // namespace orc
}  // namespace llvm

namespace proteus {
namespace jit {

/// The machine code of one module: its own dylib in the shared session.
class LinkedCode {
 public:
  ~LinkedCode();
  LinkedCode(const LinkedCode&) = delete;
  LinkedCode& operator=(const LinkedCode&) = delete;

  /// Address of the module's function `name`. The first lookup compiles and
  /// links the module.
  Result<void*> Lookup(const std::string& name) const;

 private:
  friend Result<std::unique_ptr<LinkedCode>> LinkModule(std::unique_ptr<llvm::Module>,
                                                        std::unique_ptr<llvm::LLVMContext>);
  explicit LinkedCode(llvm::orc::JITDylib* dylib) : dylib_(dylib) {}

  llvm::orc::JITDylib* dylib_;
};

/// Adds the optimized `module` (whose context is `context`) to a new dylib of
/// the shared session. Nothing is compiled until the first Lookup.
Result<std::unique_ptr<LinkedCode>> LinkModule(std::unique_ptr<llvm::Module> module,
                                               std::unique_ptr<llvm::LLVMContext> context);

}  // namespace jit
}  // namespace proteus
