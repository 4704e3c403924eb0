// AST -> register bytecode compiler for verified CoordScript handlers.
//
// Lowering performed here (docs/bytecode_vm.md):
//   * static scope resolution — ResolveNames (analysis/names.h) gives every
//     variable an id, and variable id i lives in register i (parameters
//     first, so argument i lands in register i); temporaries go above
//   * constant folding of pure literal subtrees, carrying the tree walk's
//     dynamic step count for the folded nodes (short-circuit aware) so
//     accounting is unchanged, and each folded charge's source line for
//     exact step-limit attribution
//   * builtin calls resolved to BuiltinsByIndex() indices at compile time
//   * short-circuit && / || lowered to conditional jumps
//   * foreach lowered to cached-iterator instructions, type-check-free when
//     the source is a list literal
//
// The compiler refuses anything it cannot lower with bit-identical semantics
// and step accounting (a name ResolveNames reports undeclared, which a tree
// walk would report lazily at runtime; a handler past the 65535-register
// file). The registry then rejects the registration: there is no second
// engine to fall back to.

#ifndef EDC_SCRIPT_VM_COMPILER_H_
#define EDC_SCRIPT_VM_COMPILER_H_

#include "edc/common/result.h"
#include "edc/script/ast.h"
#include "edc/script/vm/bytecode.h"

namespace edc {

// Compiles one handler. Returns false (leaving *out unspecified) on any
// construct the compiler cannot lower faithfully.
bool CompileHandler(const Handler& handler, CompiledHandler* out);

// Compiles every handler of a verified program, certified or not.
// kExtensionRejected naming the first handler the compiler refused.
Result<CompiledModule> CompileProgram(const Program& program);

}  // namespace edc

#endif  // EDC_SCRIPT_VM_COMPILER_H_
