#include "src/jit/session.h"

#include <llvm/ExecutionEngine/Orc/CompileUtils.h>
#include <llvm/ExecutionEngine/Orc/Core.h>
#include <llvm/ExecutionEngine/Orc/ExecutorProcessControl.h>
#include <llvm/ExecutionEngine/Orc/IRCompileLayer.h>
#include <llvm/ExecutionEngine/Orc/JITTargetMachineBuilder.h>
#include <llvm/ExecutionEngine/Orc/Mangling.h>
#include <llvm/ExecutionEngine/Orc/RTDyldObjectLinkingLayer.h>
#include <llvm/ExecutionEngine/SectionMemoryManager.h>
#include <llvm/IR/DataLayout.h>
#include <llvm/IR/LLVMContext.h>
#include <llvm/IR/Module.h>
#include <llvm/Support/TargetSelect.h>
#include <llvm/Support/raw_ostream.h>
#include <llvm/Target/TargetMachine.h>

#include <atomic>

#include "src/common/mutex.h"
#include "src/jit/runtime.h"

namespace proteus {
namespace jit {

namespace {

/// Code generation for the whole session: one target machine, used by one
/// compile at a time. LLVM's code generator builds some global tables
/// lazily on first use, and two first uses at once race.
class SerialCompiler : public llvm::orc::IRCompileLayer::IRCompiler {
 public:
  explicit SerialCompiler(std::unique_ptr<llvm::TargetMachine> tm)
      : IRCompiler(llvm::orc::irManglingOptionsFromTargetOptions(tm->Options)),
        compile_(std::move(tm)) {}

  llvm::Expected<std::unique_ptr<llvm::MemoryBuffer>> operator()(llvm::Module& m) override {
    MutexLock lk(mu_);
    return compile_(m);
  }

 private:
  Mutex mu_;
  llvm::orc::TMOwningSimpleCompiler compile_ GUARDED_BY(mu_);
};

class Session {
 public:
  /// The process's session, built on first use; a failed build is reported
  /// by every call.
  static const Result<Session*>& Get() {
    static const Result<Session*> session = Create();
    return session;
  }

  Result<llvm::orc::JITDylib*> Add(std::unique_ptr<llvm::Module> module,
                                   std::unique_ptr<llvm::LLVMContext> context) {
    const std::string name = "proteus_module_" + std::to_string(next_id_++);
    llvm::orc::JITDylib& jd = es_.createBareJITDylib(name);
    jd.addToLinkOrder(runtime_);
    // Code generation needs the target's layout; the optimizer ran without.
    module->setDataLayout(dl_);
    if (auto err = compile_layer_.add(
            jd, llvm::orc::ThreadSafeModule(std::move(module), std::move(context)))) {
      Remove(&jd);
      return Status::Internal("jit: addIRModule failed: " + llvm::toString(std::move(err)));
    }
    return &jd;
  }

  Result<void*> Lookup(llvm::orc::JITDylib* dylib, const std::string& name) {
    auto sym = es_.lookup({dylib}, mangle_(name));
    if (!sym) return Status::Internal("jit: lookup failed: " + llvm::toString(sym.takeError()));
    return reinterpret_cast<void*>(sym->getAddress());
  }

  void Remove(llvm::orc::JITDylib* dylib) {
    if (auto err = es_.removeJITDylib(*dylib)) {
      llvm::logAllUnhandledErrors(std::move(err), llvm::errs(), "jit: dylib removal: ");
    }
  }

 private:
  Session(std::unique_ptr<llvm::orc::ExecutorProcessControl> epc,
          std::unique_ptr<llvm::TargetMachine> tm)
      : es_(std::move(epc)),
        dl_(tm->createDataLayout()),
        mangle_(es_, dl_),
        object_layer_(es_, [] { return std::make_unique<llvm::SectionMemoryManager>(); }),
        compile_layer_(es_, object_layer_, std::make_unique<SerialCompiler>(std::move(tm))),
        runtime_(es_.createBareJITDylib("proteus_runtime")) {}

  static Result<Session*> Create() {
    llvm::InitializeNativeTarget();
    llvm::InitializeNativeTargetAsmPrinter();
    auto epc = llvm::orc::SelfExecutorProcessControl::Create();
    if (!epc) return Fail("process control", epc.takeError());
    auto jtmb = llvm::orc::JITTargetMachineBuilder::detectHost();
    if (!jtmb) return Fail("host detection", jtmb.takeError());
    auto tm = jtmb->createTargetMachine();
    if (!tm) return Fail("target machine", tm.takeError());
    // Never destroyed: modules are released from any thread until exit.
    auto* s = new Session(std::move(*epc), std::move(*tm));
    llvm::orc::SymbolMap symbols;
    for (const auto& [name, addr] : RuntimeSymbols()) {
      symbols[s->mangle_(name)] = llvm::JITEvaluatedSymbol(
          llvm::pointerToJITTargetAddress(addr),
          llvm::JITSymbolFlags::Exported | llvm::JITSymbolFlags::Callable);
    }
    if (auto err = s->runtime_.define(llvm::orc::absoluteSymbols(std::move(symbols)))) {
      return Fail("symbol registration", std::move(err));
    }
    return s;
  }

  static Status Fail(const char* what, llvm::Error err) {
    return Status::Internal(std::string("jit: session ") + what +
                            " failed: " + llvm::toString(std::move(err)));
  }

  llvm::orc::ExecutionSession es_;
  llvm::DataLayout dl_;
  llvm::orc::MangleAndInterner mangle_;
  llvm::orc::RTDyldObjectLinkingLayer object_layer_;
  llvm::orc::IRCompileLayer compile_layer_;
  llvm::orc::JITDylib& runtime_;
  std::atomic<uint64_t> next_id_{0};
};

}  // namespace

LinkedCode::~LinkedCode() { (*Session::Get())->Remove(dylib_); }

Result<void*> LinkedCode::Lookup(const std::string& name) const {
  return (*Session::Get())->Lookup(dylib_, name);
}

Result<std::unique_ptr<LinkedCode>> LinkModule(std::unique_ptr<llvm::Module> module,
                                               std::unique_ptr<llvm::LLVMContext> context) {
  PROTEUS_ASSIGN_OR_RETURN(Session * session, Session::Get());
  PROTEUS_ASSIGN_OR_RETURN(llvm::orc::JITDylib * dylib,
                           session->Add(std::move(module), std::move(context)));
  return std::unique_ptr<LinkedCode>(new LinkedCode(dylib));
}

}  // namespace jit
}  // namespace proteus
