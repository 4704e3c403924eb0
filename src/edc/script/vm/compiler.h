// AST -> register bytecode compiler for verified CoordScript handlers.
//
// Lowering performed here (docs/bytecode_vm.md):
//   * static scope resolution — every variable becomes a register; shadowing
//     and block lifetimes mirror the tree walk's scope stack exactly
//   * constant folding of pure literal subtrees, carrying the tree walk's
//     dynamic step count for the folded nodes (short-circuit aware) so
//     accounting is unchanged, and each folded charge's source line for
//     exact step-limit attribution
//   * builtin calls resolved to BuiltinsByIndex() indices at compile time
//   * short-circuit && / || lowered to conditional jumps
//   * foreach lowered to cached-iterator instructions, annotated with the
//     loop bound the analyzer proved (literal list length or the sandbox's
//     collection cap) and type-check-free when the source is a list literal
//
// The compiler refuses anything it cannot lower with bit-identical semantics
// and step accounting (a variable the scoping passes could not resolve,
// which a tree walk would report lazily at runtime; a handler past the
// 65535-register file). The registry then rejects the registration: there
// is no second engine to fall back to.

#ifndef EDC_SCRIPT_VM_COMPILER_H_
#define EDC_SCRIPT_VM_COMPILER_H_

#include <cstdint>
#include <set>
#include <string>

#include "edc/common/result.h"
#include "edc/script/ast.h"
#include "edc/script/vm/bytecode.h"

namespace edc {

struct CompileOptions {
  // Host functions whose result size the sandbox caps (children,
  // sub_objects, ...): feeds the foreach loop-bound annotation.
  std::set<std::string> collection_functions;
  int64_t max_collection_items = 256;
};

// Compiles one handler. Returns false (leaving *out unspecified) on any
// construct the compiler cannot lower faithfully.
bool CompileHandler(const Handler& handler, const CompileOptions& options,
                    CompiledHandler* out);

// Compiles every handler of a verified program, certified or not.
// kExtensionRejected naming the first handler the compiler refused.
Result<CompiledModule> CompileProgram(const Program& program, const CompileOptions& options);

}  // namespace edc

#endif  // EDC_SCRIPT_VM_COMPILER_H_
