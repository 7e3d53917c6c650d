#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "expr/bytecode.h"
#include "expr/expression.h"
#include "query/parser.h"

// Golden disassembly tests: the compiled form of representative DEFINE
// predicates is pinned as checked-in text. Codegen changes (register
// allocation, eager AND/OR lowering, constant interning) then surface as
// reviewable golden-file diffs instead of silent perf or semantics
// shifts. Regenerate after an intentional change with
//     TPSTREAM_REGEN_GOLDEN=1 ./bytecode_disasm_test
// and commit the diff.

namespace tpstream {
namespace {

std::string GoldenPath(const std::string& name) {
  return std::string(TPSTREAM_TEST_GOLDEN_DIR) + "/" + name;
}

void CheckGolden(const std::string& name, const BytecodeProgram& program) {
  const std::string got = program.Disassemble();
  const std::string path = GoldenPath(name);
  if (std::getenv("TPSTREAM_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << got;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden file " << path
      << " (regenerate with TPSTREAM_REGEN_GOLDEN=1)";
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(want.str(), got)
      << "disassembly of " << name << " changed; if intentional, "
      << "regenerate with TPSTREAM_REGEN_GOLDEN=1 and commit the diff";
}

std::shared_ptr<const BytecodeProgram> Compile(const ExprPtr& expr) {
  auto result = CompilePredicate(*expr);
  EXPECT_TRUE(result.ok()) << result.status().message();
  return result.ok() ? result.value() : nullptr;
}

// A DEFINE predicate as the parser produces it: left-associative
// comparison chain under AND.
TEST(BytecodeDisasmTest, ComparisonChain) {
  Schema schema({Field{"speed", ValueType::kDouble},
                 Field{"limit", ValueType::kDouble}});
  auto spec = query::ParseQuery(
      "FROM S DEFINE A AS speed > 70.0 AND speed <= limit AND limit != 0, "
      "B AS speed < 1.0 PATTERN A before B WITHIN 100",
      schema);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  auto program = Compile(spec.value().definitions[0].predicate);
  ASSERT_NE(program, nullptr);
  CheckGolden("comparison_chain.disasm", *program);
}

// AND/OR short-circuit lowering with a string constant in the pool.
TEST(BytecodeDisasmTest, ShortCircuitMix) {
  Schema schema({Field{"flag", ValueType::kBool},
                 Field{"x", ValueType::kDouble},
                 Field{"y", ValueType::kDouble},
                 Field{"name", ValueType::kString}});
  auto spec = query::ParseQuery(
      "FROM S DEFINE A AS flag AND x / y > 1.5 OR NOT name == 'stop', "
      "B AS x < 0.0 PATTERN A before B WITHIN 100",
      schema);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  auto program = Compile(spec.value().definitions[0].predicate);
  ASSERT_NE(program, nullptr);
  CheckGolden("short_circuit.disasm", *program);
}

// Arithmetic with unary negation and mixed int/double literals.
TEST(BytecodeDisasmTest, ArithmeticTree) {
  const ExprPtr a = FieldRef(0, "a");
  const ExprPtr b = FieldRef(1, "b");
  const ExprPtr expr =
      Ge(Negate(Binary(
             BinaryOp::kSub,
             Binary(BinaryOp::kAdd,
                    Binary(BinaryOp::kMul, a, Literal(int64_t{2})),
                    Binary(BinaryOp::kDiv, b, Literal(4.0))),
             Literal(int64_t{1}))),
         Literal(3.5));
  auto program = Compile(expr);
  ASSERT_NE(program, nullptr);
  CheckGolden("arithmetic.disasm", *program);
}

// Repeated and adjacent field references: the referenced-field list must
// come out deduplicated and ascending, and equal constants must intern to
// one pool slot.
TEST(BytecodeDisasmTest, FieldAndConstDedup) {
  const ExprPtr x = FieldRef(2, "x");
  const ExprPtr y = FieldRef(0, "y");
  const ExprPtr expr =
      And(And(Gt(x, Literal(0.0)), Lt(x, Literal(100.0))),
          And(Binary(BinaryOp::kNe, y, x), Gt(y, Literal(0.0))));
  auto program = Compile(expr);
  ASSERT_NE(program, nullptr);
  EXPECT_EQ(program->referenced_fields(), (std::vector<int>{0, 2}));
  CheckGolden("field_dedup.disasm", *program);
}

// Structural invariants that hold for every golden program, pinned here
// so a regen can't silently bake in a regression.
TEST(BytecodeDisasmTest, ProgramShapeInvariants) {
  Schema schema({Field{"speed", ValueType::kDouble},
                 Field{"limit", ValueType::kDouble}});
  auto spec = query::ParseQuery(
      "FROM S DEFINE A AS speed > 70.0 AND speed <= limit AND limit != 0, "
      "B AS speed < 1.0 PATTERN A before B WITHIN 100",
      schema);
  ASSERT_TRUE(spec.ok());
  auto program = Compile(spec.value().definitions[0].predicate);
  ASSERT_NE(program, nullptr);
  // Stack-shaped allocation: an AND chain of binary comparisons never
  // needs more than operand depth + 1 registers.
  EXPECT_LE(program->num_registers(), 3);
  EXPECT_EQ(program->referenced_fields(), (std::vector<int>{0, 1}));
  // Last instruction is the single kRet.
  const std::vector<Instr>& code = program->code();
  ASSERT_FALSE(code.empty());
  EXPECT_EQ(code.back().op, OpCode::kRet);
  int rets = 0;
  for (const Instr& in : code) {
    if (in.op == OpCode::kRet) ++rets;
  }
  EXPECT_EQ(rets, 1);
}

}  // namespace
}  // namespace tpstream
