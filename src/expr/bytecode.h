#ifndef TPSTREAM_EXPR_BYTECODE_H_
#define TPSTREAM_EXPR_BYTECODE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/event.h"
#include "common/status.h"
#include "common/value.h"
#include "expr/expression.h"
#include "expr/simd.h"

namespace tpstream {

/// Compiled predicate bytecode: a flat, branch-free register program
/// equivalent to one DEFINE predicate's Expression tree, evaluated
/// column-at-a-time over an event batch.
///
/// Semantics are pinned to the tree interpreter bit-for-bit — the same
/// null/type-error propagation, numeric widening, wraparound integer
/// arithmetic (common/value.h), NaN-aware comparisons and AND/OR
/// truthiness (tests/bytecode_fuzz_test.cc differentially fuzzes the two
/// evaluators). The interpreter stays the oracle and evaluates single
/// events; the program exists to make batches cheaper: one opcode
/// dispatch per batch instead of per event, no Value variant copies, and
/// — through ColumnarBatch — field decoding done once per (event, field)
/// instead of once per (event, predicate).

// --- Instruction set ----------------------------------------------------

enum class OpCode : uint8_t {
  kLoadConst,     // r[dst] = consts[a]
  kLoadField,     // r[dst] = field a (null when absent)
  kAdd,           // r[dst] = r[a] op r[b]: numeric widening, null on
  kSub,           //   type mismatch; int op int wraps (common/value.h)
  kMul,
  kDiv,           // always widens to double; null on division by zero
  kCmpEq,         // r[dst] = three-valued comparison of r[a], r[b]:
  kCmpNe,         //   bool on comparable types, null on incomparable
  kCmpLt,         //   (mixed non-numeric types, any null, NaN operand)
  kCmpLe,
  kCmpGt,
  kCmpGe,
  kNot,           // r[dst] = bool(!Truthy(r[a]))
  kNeg,           // r[dst] = -r[a] for int/double, null otherwise
  kRet,           // result = Truthy(r[a])
  // Fused comparisons: r[dst] = cmp(field a, consts[b]) in one dispatch.
  // `field OP literal` is the dominant DEFINE shape; fusing it removes
  // two loads and two dispatches per evaluation. Must stay contiguous
  // and ordered like the kCmpEq..kCmpGe block (FusedCmpBase relies on
  // the fixed offset).
  kCmpEqFC,
  kCmpNeFC,
  kCmpLtFC,
  kCmpLeFC,
  kCmpGtFC,
  kCmpGeFC,
  // Eager boolean connectives: r[dst] = Truthy(r[a]) op Truthy(r[b]),
  // what AND/OR compile to. Because every opcode is total (division by
  // zero and type errors yield null, never a trap), evaluating the
  // operand the interpreter would skip is unobservable and the eager
  // result Value is identical to the short-circuit one.
  kAndEager,
  kOrEager,
};

const char* OpCodeName(OpCode op);

/// One instruction. Operand meaning depends on the opcode: `a` is the
/// first source register (or the constant/field index for loads and
/// fused comparisons), `b` the second source register (or the constant
/// index of a fused comparison).
struct Instr {
  OpCode op;
  uint16_t dst = 0;
  uint16_t a = 0;
  uint16_t b = 0;
};

/// One unboxed Value: a ColumnarBatch cell or a row of an AoS register.
/// Strings are never created by bytecode (no string-producing opcode
/// exists), so a slot only ever *borrows* a string owned by the constant
/// pool or by the evaluated tuple.
struct RegSlot {
  ValueType type = ValueType::kNull;
  union Payload {
    int64_t i;
    double d;
    bool b;
    const std::string* s;
  } v = {0};
};

/// Uniformity summary of one column (or one register column): when every
/// slot shares a numeric/bool type, the columnar executor runs a
/// type-specialized kernel with no per-row dispatch. The class only
/// *selects* a kernel — every kernel is elementwise-exact (NaN guards,
/// integer-domain int comparisons, null on division by zero), so a
/// conservative kMixed is always safe, never wrong.
enum class ColClass : uint8_t { kMixed, kInt, kDouble, kBool };

/// One register's representation in the SoA (structure-of-arrays)
/// columnar executor. A register is exactly one of:
///  - a *splat*: one RegSlot broadcast over every row (constants, and
///    results provably identical across the batch);
///  - a dense typed column (`cls` kInt/kDouble/kBool): `val` points at
///    contiguous int64/double lanes or 0/1 bool bytes, with `null` an
///    optional per-row null-byte mask (1 = null; value lane then
///    don't-care);
///  - the AoS fallback (`cls` kMixed, no splat): the register lives in
///    ExecScratch::cols as RegSlots and is evaluated row by row.
/// `val`/`null` may alias ColumnarBatch storage (zero-copy field loads)
/// or the register's *own* scratch buffers — never another register's,
/// since stack-shaped allocation reuses registers underneath.
struct SoaView {
  ColClass cls = ColClass::kMixed;
  bool splat = false;
  RegSlot splat_val{};
  const void* val = nullptr;
  const uint8_t* null = nullptr;
};

/// Reusable executor state, owned by the caller so one evaluation
/// allocates nothing. Sized on first use per program.
///
/// `simd` selects the kernel table the executor runs on: the default
/// resolves the TPSTREAM_SIMD environment variable (off|sse2|avx2|native)
/// or the best level the machine supports; kOff runs the same executor
/// on scalar-width kernels. The soa_* members are the executor's owned
/// SoA storage: per-register 8-byte value lanes (soa_lanes), value/null
/// byte pairs (soa_bytes), and conversion/mask scratch
/// (num_tmp/byte_tmp). `cols` is the AoS register file of the mixed-type
/// fallback (register r is the slice [r * rows, (r + 1) * rows)).
struct ExecScratch {
  std::vector<RegSlot> cols;
  simd::SimdLevel simd = simd::DefaultSimdLevel();
  std::vector<SoaView> soa_view;
  std::vector<uint64_t> soa_lanes;  // reg r: [r*rows, (r+1)*rows) lanes
  std::vector<uint8_t> soa_bytes;   // reg r: bools at 2r*rows, nulls at
                                    // (2r+1)*rows
  std::vector<uint64_t> num_tmp;    // 2*rows widening/splat lanes
  std::vector<uint8_t> byte_tmp;    // 3*rows mask-copy + ret scratch
};

// --- Columnar batches ---------------------------------------------------

/// A column-major view of an event batch, restricted to the fields the
/// compiled programs actually reference: column(f)[row] is
/// events[row].payload[f] decoded into a RegSlot exactly once, however
/// many predicates read it. Rebuilt (storage reused) per batch by
/// Deriver::PrepareBatch.
class ColumnarBatch {
 public:
  /// Transposes `events` into columns for each field index in `fields`
  /// (ascending, deduplicated). Rows whose tuple is too short yield null
  /// slots, matching the interpreter's out-of-range FieldRef semantics.
  /// String cells borrow the event's payload, so `events` must outlive
  /// any evaluation against this batch.
  void Assign(std::span<const Event> events, const std::vector<int>& fields);

  size_t num_rows() const { return rows_; }

  /// The whole decoded column for `field` (num_rows() slots), or nullptr
  /// when the field was not materialized — the columnar executor hoists
  /// this lookup out of its per-row loops.
  const RegSlot* ColumnPtr(int field) const {
    const int c = ColumnIndex(field);
    return c < 0 ? nullptr : columns_[c].data();
  }

  /// The uniformity class of `field`'s column (kMixed when absent or
  /// heterogeneous), computed once during Assign.
  ColClass ColumnClass(int field) const {
    const int c = ColumnIndex(field);
    return c < 0 ? ColClass::kMixed : col_class_[c];
  }

  /// Dense SoA views, built during Assign for uniformly-typed columns:
  /// the column's values as a contiguous nullable-free array the SIMD
  /// kernels can load directly. Non-null exactly when ColumnClass(field)
  /// is the matching class.
  const int64_t* IntColumn(int field) const {
    const int c = ColumnIndex(field);
    return c >= 0 && col_class_[c] == ColClass::kInt ? typed_i64_[c].data()
                                                     : nullptr;
  }
  const double* DoubleColumn(int field) const {
    const int c = ColumnIndex(field);
    return c >= 0 && col_class_[c] == ColClass::kDouble
               ? typed_f64_[c].data()
               : nullptr;
  }
  const uint8_t* BoolColumn(int field) const {
    const int c = ColumnIndex(field);
    return c >= 0 && col_class_[c] == ColClass::kBool ? typed_u8_[c].data()
                                                      : nullptr;
  }

 private:
  int ColumnIndex(int field) const {
    return field >= 0 && field < static_cast<int>(col_of_field_.size())
               ? col_of_field_[field]
               : -1;
  }

  std::vector<std::vector<RegSlot>> columns_;
  std::vector<ColClass> col_class_;  // uniformity per columns_ entry
  std::vector<int> col_of_field_;  // field index -> columns_ index or -1
  // SoA mirrors of uniformly-typed columns (only the vector matching the
  // column's class is populated; bool values are 0/1 bytes).
  std::vector<std::vector<int64_t>> typed_i64_;
  std::vector<std::vector<double>> typed_f64_;
  std::vector<std::vector<uint8_t>> typed_u8_;
  size_t rows_ = 0;
};

// --- Programs -----------------------------------------------------------

/// An immutable compiled predicate. Not copyable or movable: register
/// slots of string constants point into the program's own pool, so the
/// program lives behind the shared_ptr CompilePredicate returns.
class BytecodeProgram {
 public:
  BytecodeProgram(const BytecodeProgram&) = delete;
  BytecodeProgram& operator=(const BytecodeProgram&) = delete;

  /// Evaluates the predicate over every row of `batch`, writing
  /// Truthy(result) into out[0..num_rows). The batch must have been
  /// assigned with (a superset of) referenced_fields(). Each row equals
  /// EvalPredicate on that row's tuple (the fuzzer pins this at every
  /// SIMD tier).
  ///
  /// Runs the straight-line code() stream column-at-a-time: one opcode
  /// dispatch covers the whole batch. Registers use the SoA layout
  /// (SoaView); typed rows run through the simd.h kernel table that
  /// scratch->simd selects, and mixed-typed registers fall back to a
  /// per-row RegSlot loop.
  void RunPredicateColumn(const ColumnarBatch& batch, ExecScratch* scratch,
                          uint8_t* out) const;

  /// Bit-packed variant: writes ceil(num_rows/64) words, row r at word
  /// r/64 bit r%64, tail bits zero — the selection bitmap the Deriver
  /// scans word-at-a-time to skip all-false spans.
  void RunPredicateColumnBits(const ColumnarBatch& batch,
                              ExecScratch* scratch,
                              uint64_t* out_words) const;

  /// Field indices this program reads, ascending — the columns a
  /// ColumnarBatch must materialize for RunPredicateColumn.
  const std::vector<int>& referenced_fields() const { return fields_; }

  /// The instruction stream: branch-free (AND/OR compile to
  /// kAndEager/kOrEager), ending in the single kRet.
  const std::vector<Instr>& code() const { return instrs_; }
  int num_registers() const { return num_registers_; }

  /// Stable text listing (golden-tested): header line, constant pool,
  /// then one line per instruction. Codegen changes surface as
  /// reviewable golden-file diffs.
  std::string Disassemble() const;

 private:
  friend class PredicateCompiler;
  BytecodeProgram() = default;

  void RunColumnSoa(const ColumnarBatch& batch, ExecScratch* scratch,
                    uint8_t* out_bytes, uint64_t* out_words) const;

  std::vector<Instr> instrs_;
  std::vector<Value> consts_;         // owns string literal storage
  std::vector<RegSlot> const_slots_;  // unboxed consts_, prebuilt
  std::vector<int> fields_;           // referenced fields, ascending
  int num_registers_ = 0;
};

/// Compiles a predicate Expression tree into a bytecode program.
/// Compilation cannot change semantics — it fails (callers then keep the
/// interpreter for that predicate) rather than approximate, e.g. on
/// register or constant pools outgrowing 16-bit operands.
Result<std::shared_ptr<const BytecodeProgram>> CompilePredicate(
    const Expression& expr);

}  // namespace tpstream

#endif  // TPSTREAM_EXPR_BYTECODE_H_
