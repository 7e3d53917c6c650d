#include "expr/bytecode.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <unordered_map>
#include <utility>

namespace tpstream {

namespace {

constexpr int kMaxOperand = 0xFFFF;

// --- Unboxed Value operations, mirrored from common/value.cc ------------
// Every branch below is the RegSlot transliteration of the corresponding
// Value operation; the differential fuzzer holds the two in lockstep.

inline bool IsNumeric(ValueType t) {
  return t == ValueType::kInt || t == ValueType::kDouble;
}

inline double SlotToDouble(const RegSlot& s) {
  // Only reached with numeric slots (arithmetic guards on IsNumeric),
  // mirroring Value::ToDouble on the int/double cases.
  return s.type == ValueType::kInt ? static_cast<double>(s.v.i) : s.v.d;
}

inline bool SlotTruthy(const RegSlot& s) {
  switch (s.type) {
    case ValueType::kBool:
      return s.v.b;
    case ValueType::kInt:
      return s.v.i != 0;
    case ValueType::kDouble:
      return s.v.d != 0.0;
    default:
      return false;  // null and string, like Value::Truthy
  }
}

inline RegSlot IntSlot(int64_t v) {
  RegSlot s;
  s.type = ValueType::kInt;
  s.v.i = v;
  return s;
}

inline RegSlot DoubleSlot(double v) {
  RegSlot s;
  s.type = ValueType::kDouble;
  s.v.d = v;
  return s;
}

inline RegSlot BoolSlot(bool v) {
  RegSlot s;
  s.type = ValueType::kBool;
  s.v.b = v;
  return s;
}

inline RegSlot SlotFromValue(const Value& v) {
  RegSlot s;
  s.type = v.type();
  switch (v.type()) {
    case ValueType::kInt:
      s.v.i = v.AsInt();
      break;
    case ValueType::kDouble:
      s.v.d = v.AsDouble();
      break;
    case ValueType::kBool:
      s.v.b = v.AsBool();
      break;
    case ValueType::kString:
      s.v.s = &v.AsString();
      break;
    case ValueType::kNull:
      break;
  }
  return s;
}

inline RegSlot LoadTupleField(const Tuple& tuple, int field) {
  if (field >= static_cast<int>(tuple.size())) return RegSlot{};
  return SlotFromValue(tuple[field]);
}

template <typename IntOp, typename DoubleOp>
inline RegSlot NumericSlotOp(const RegSlot& a, const RegSlot& b,
                             IntOp int_op, DoubleOp double_op) {
  if (!IsNumeric(a.type) || !IsNumeric(b.type)) return RegSlot{};
  if (a.type == ValueType::kInt && b.type == ValueType::kInt) {
    return IntSlot(int_op(a.v.i, b.v.i));
  }
  return DoubleSlot(double_op(SlotToDouble(a), SlotToDouble(b)));
}

inline RegSlot SlotDiv(const RegSlot& a, const RegSlot& b) {
  if (!IsNumeric(a.type) || !IsNumeric(b.type)) return RegSlot{};
  const double y = SlotToDouble(b);
  if (y == 0.0) return RegSlot{};
  return DoubleSlot(SlotToDouble(a) / y);
}

// Value::Compare transliterated to slots.
inline int SlotCompare(const RegSlot& a, const RegSlot& b) {
  if (a.type == ValueType::kNull || b.type == ValueType::kNull) {
    return Value::kIncomparable;
  }
  if (IsNumeric(a.type) && IsNumeric(b.type)) {
    if (a.type == ValueType::kInt && b.type == ValueType::kInt) {
      return a.v.i < b.v.i ? -1 : (a.v.i > b.v.i ? 1 : 0);
    }
    const double x = SlotToDouble(a);
    const double y = SlotToDouble(b);
    if (std::isnan(x) || std::isnan(y)) return Value::kIncomparable;
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  if (a.type != b.type) return Value::kIncomparable;
  switch (a.type) {
    case ValueType::kBool:
      return (a.v.b ? 1 : 0) - (b.v.b ? 1 : 0);
    case ValueType::kString: {
      const int c = a.v.s->compare(*b.v.s);
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    default:
      return Value::kIncomparable;
  }
}

inline RegSlot SlotCmp(OpCode op, const RegSlot& a, const RegSlot& b) {
  const int cmp = SlotCompare(a, b);
  if (cmp == Value::kIncomparable) return RegSlot{};  // null, falsy
  switch (op) {
    case OpCode::kCmpEq:
      return BoolSlot(cmp == 0);
    case OpCode::kCmpNe:
      return BoolSlot(cmp != 0);
    case OpCode::kCmpLt:
      return BoolSlot(cmp < 0);
    case OpCode::kCmpLe:
      return BoolSlot(cmp <= 0);
    case OpCode::kCmpGt:
      return BoolSlot(cmp > 0);
    default:
      return BoolSlot(cmp >= 0);  // kCmpGe
  }
}

/// The plain comparison a fused field-vs-const opcode stands for; relies
/// on the two enum blocks sharing order and being contiguous.
inline OpCode FusedCmpBase(OpCode op) {
  return static_cast<OpCode>(static_cast<int>(OpCode::kCmpEq) +
                             (static_cast<int>(op) -
                              static_cast<int>(OpCode::kCmpEqFC)));
}

inline bool IsFusedCmp(OpCode op) {
  return op >= OpCode::kCmpEqFC && op <= OpCode::kCmpGeFC;
}

/// One computing opcode over single operands: the semantics every
/// columnar kernel must reproduce, used for splat registers and for the
/// mixed-type row fallback. Fused comparisons take the field cell as `a`
/// and the constant as `b`; unary opcodes ignore `b`.
RegSlot ScalarOp(OpCode op, const RegSlot& a, const RegSlot& b) {
  switch (op) {
    case OpCode::kAdd:
      return NumericSlotOp(a, b, WrapAdd,
                           [](double x, double y) { return x + y; });
    case OpCode::kSub:
      return NumericSlotOp(a, b, WrapSub,
                           [](double x, double y) { return x - y; });
    case OpCode::kMul:
      return NumericSlotOp(a, b, WrapMul,
                           [](double x, double y) { return x * y; });
    case OpCode::kDiv:
      return SlotDiv(a, b);
    case OpCode::kCmpEq:
    case OpCode::kCmpNe:
    case OpCode::kCmpLt:
    case OpCode::kCmpLe:
    case OpCode::kCmpGt:
    case OpCode::kCmpGe:
      return SlotCmp(op, a, b);
    case OpCode::kCmpEqFC:
    case OpCode::kCmpNeFC:
    case OpCode::kCmpLtFC:
    case OpCode::kCmpLeFC:
    case OpCode::kCmpGtFC:
    case OpCode::kCmpGeFC:
      return SlotCmp(FusedCmpBase(op), a, b);
    case OpCode::kNot:
      return BoolSlot(!SlotTruthy(a));
    case OpCode::kNeg:
      if (a.type == ValueType::kInt) return IntSlot(WrapNeg(a.v.i));
      if (a.type == ValueType::kDouble) return DoubleSlot(-a.v.d);
      return RegSlot{};
    case OpCode::kAndEager:
      return BoolSlot(SlotTruthy(a) && SlotTruthy(b));
    case OpCode::kOrEager:
      return BoolSlot(SlotTruthy(a) || SlotTruthy(b));
    case OpCode::kLoadConst:
    case OpCode::kLoadField:
    case OpCode::kRet:
      break;  // handled by the executor itself
  }
  return RegSlot{};
}

inline ColClass ClassOfType(ValueType t) {
  switch (t) {
    case ValueType::kInt:
      return ColClass::kInt;
    case ValueType::kDouble:
      return ColClass::kDouble;
    case ValueType::kBool:
      return ColClass::kBool;
    default:
      return ColClass::kMixed;
  }
}

}  // namespace

const char* OpCodeName(OpCode op) {
  switch (op) {
    case OpCode::kLoadConst:
      return "load_const";
    case OpCode::kLoadField:
      return "load_field";
    case OpCode::kAdd:
      return "add";
    case OpCode::kSub:
      return "sub";
    case OpCode::kMul:
      return "mul";
    case OpCode::kDiv:
      return "div";
    case OpCode::kCmpEq:
      return "cmp_eq";
    case OpCode::kCmpNe:
      return "cmp_ne";
    case OpCode::kCmpLt:
      return "cmp_lt";
    case OpCode::kCmpLe:
      return "cmp_le";
    case OpCode::kCmpGt:
      return "cmp_gt";
    case OpCode::kCmpGe:
      return "cmp_ge";
    case OpCode::kNot:
      return "not";
    case OpCode::kNeg:
      return "neg";
    case OpCode::kRet:
      return "ret";
    case OpCode::kCmpEqFC:
      return "cmp_eq_fc";
    case OpCode::kCmpNeFC:
      return "cmp_ne_fc";
    case OpCode::kCmpLtFC:
      return "cmp_lt_fc";
    case OpCode::kCmpLeFC:
      return "cmp_le_fc";
    case OpCode::kCmpGtFC:
      return "cmp_gt_fc";
    case OpCode::kCmpGeFC:
      return "cmp_ge_fc";
    case OpCode::kAndEager:
      return "and_eager";
    case OpCode::kOrEager:
      return "or_eager";
  }
  return "?";
}

// --- ColumnarBatch ------------------------------------------------------

void ColumnarBatch::Assign(std::span<const Event> events,
                           const std::vector<int>& fields) {
  rows_ = events.size();
  const int max_field = fields.empty() ? -1 : fields.back();
  col_of_field_.assign(max_field + 1, -1);
  if (columns_.size() < fields.size()) {
    columns_.resize(fields.size());
    typed_i64_.resize(fields.size());
    typed_f64_.resize(fields.size());
    typed_u8_.resize(fields.size());
  }
  col_class_.assign(fields.size(), ColClass::kMixed);
  for (size_t c = 0; c < fields.size(); ++c) {
    const int f = fields[c];
    col_of_field_[f] = static_cast<int>(c);
    std::vector<RegSlot>& col = columns_[c];
    col.resize(rows_);
    bool uniform = rows_ > 0;
    for (size_t row = 0; row < rows_; ++row) {
      col[row] = LoadTupleField(events[row].payload, f);
      uniform &= col[row].type == col[0].type;
    }
    if (uniform) col_class_[c] = ClassOfType(col[0].type);
    // SoA mirror for uniformly-typed columns: a dense value array the
    // SIMD kernels load directly (bool as 0/1 bytes), no nulls by
    // construction.
    switch (col_class_[c]) {
      case ColClass::kInt: {
        std::vector<int64_t>& t = typed_i64_[c];
        t.resize(rows_);
        for (size_t row = 0; row < rows_; ++row) t[row] = col[row].v.i;
        break;
      }
      case ColClass::kDouble: {
        std::vector<double>& t = typed_f64_[c];
        t.resize(rows_);
        for (size_t row = 0; row < rows_; ++row) t[row] = col[row].v.d;
        break;
      }
      case ColClass::kBool: {
        std::vector<uint8_t>& t = typed_u8_[c];
        t.resize(rows_);
        for (size_t row = 0; row < rows_; ++row) {
          t[row] = col[row].v.b ? 1 : 0;
        }
        break;
      }
      case ColClass::kMixed:
        break;
    }
  }
}

// --- Columnar executor --------------------------------------------------

namespace {

/// The mixed-type fallback: one instruction, row by row, over the AoS
/// (RegSlot-column) register file — register r is the slice
/// [r * rows, (r + 1) * rows). Never sees loads or kRet.
void ExecColumnInstr(const Instr& in, const ColumnarBatch& batch,
                     const RegSlot* consts, RegSlot* regs, size_t rows) {
  static const RegSlot kNullSlot{};
  RegSlot* const d = regs + static_cast<size_t>(in.dst) * rows;
  const RegSlot* a = regs + static_cast<size_t>(in.a) * rows;
  const RegSlot* b = regs + static_cast<size_t>(in.b) * rows;
  size_t a_stride = 1;
  size_t b_stride = 1;
  if (IsFusedCmp(in.op)) {
    // Field column (null on every row when absent) vs a broadcast const.
    a = batch.ColumnPtr(in.a);
    if (a == nullptr) {
      a = &kNullSlot;
      a_stride = 0;
    }
    b = consts + in.b;
    b_stride = 0;
  }
  for (size_t r = 0; r < rows; ++r) {
    d[r] = ScalarOp(in.op, a[r * a_stride], b[r * b_stride]);
  }
}

// Registers hold SoaView representations (splat / dense typed column /
// AoS fallback); typed rows run through the dispatched kernel table, and
// any register that degrades to per-row typing falls back to
// ExecColumnInstr on the RegSlot register file.
//
// Aliasing discipline: a view's pointers reference either ColumnarBatch
// storage (immutable for the run) or the register's *own* scratch
// buffers. Kernels are elementwise over a common row index, so in-place
// operation (dst == a) is safe; the one hazard is a kernel writing dst's
// null buffer while an operand's mask lives there (operand == dst), and
// GuardMask copies such masks aside first.

inline int MirrorCmpIdx(int idx) {
  switch (idx) {
    case 2:
      return 4;  // lt -> gt
    case 3:
      return 5;  // le -> ge
    case 4:
      return 2;  // gt -> lt
    case 5:
      return 3;  // ge -> le
    default:
      return idx;  // eq / ne are symmetric
  }
}

struct SoaExec {
  const simd::Kernels& K;
  const ColumnarBatch& batch;
  const RegSlot* consts;
  const size_t rows;
  RegSlot* aos;       // AoS fallback register file (scratch->cols)
  SoaView* v;
  uint64_t* lanes;    // value lanes, rows per register
  uint8_t* bytes;     // bool/null bytes, 2*rows per register
  uint64_t* num_tmp;  // 2*rows conversion/splat lanes
  uint8_t* mask_tmp;  // 2*rows mask-copy scratch

  int64_t* OwnI64(uint16_t r) {
    return reinterpret_cast<int64_t*>(lanes + static_cast<size_t>(r) * rows);
  }
  double* OwnF64(uint16_t r) {
    return reinterpret_cast<double*>(lanes + static_cast<size_t>(r) * rows);
  }
  uint8_t* OwnVal(uint16_t r) {
    return bytes + static_cast<size_t>(2 * r) * rows;
  }
  uint8_t* OwnNull(uint16_t r) {
    return bytes + static_cast<size_t>(2 * r + 1) * rows;
  }
  double* TmpF64(int half) {
    return reinterpret_cast<double*>(num_tmp) +
           static_cast<size_t>(half) * rows;
  }
  int64_t* TmpI64(int half) {
    return reinterpret_cast<int64_t*>(num_tmp) +
           static_cast<size_t>(half) * rows;
  }

  static bool InAos(const SoaView& w) {
    return !w.splat && w.cls == ColClass::kMixed;
  }
  static bool IsNum(const SoaView& w) {
    return w.cls == ColClass::kInt || w.cls == ColClass::kDouble;
  }
  static SoaView Splat(const RegSlot& k) {
    SoaView w;
    w.splat = true;
    w.splat_val = k;
    w.cls = ClassOfType(k.type);
    return w;
  }

  void SplatOut(uint16_t dst, const RegSlot& k) { v[dst] = Splat(k); }

  void SetBool(uint16_t dst, const uint8_t* nulls) {
    SoaView w;
    w.cls = ColClass::kBool;
    w.val = OwnVal(dst);
    w.null = nulls;
    v[dst] = w;
  }
  void SetNum(uint16_t dst, ColClass cls, const uint8_t* nulls) {
    SoaView w;
    w.cls = cls;
    w.val = lanes + static_cast<size_t>(dst) * rows;
    w.null = nulls;
    v[dst] = w;
  }

  const uint8_t* NullOf(uint16_t r) const {
    return v[r].splat ? nullptr : v[r].null;
  }

  /// Materializes a register into the AoS file (no-op if already there),
  /// so ExecColumnInstr can consume it.
  void ToAos(uint16_t r) {
    const SoaView w = v[r];
    if (InAos(w)) return;
    RegSlot* d = aos + static_cast<size_t>(r) * rows;
    if (w.splat) {
      std::fill(d, d + rows, w.splat_val);
    } else {
      const uint8_t* nn = w.null;
      switch (w.cls) {
        case ColClass::kInt: {
          const int64_t* p = static_cast<const int64_t*>(w.val);
          for (size_t i = 0; i < rows; ++i) {
            d[i] = nn != nullptr && nn[i] ? RegSlot{} : IntSlot(p[i]);
          }
          break;
        }
        case ColClass::kDouble: {
          const double* p = static_cast<const double*>(w.val);
          for (size_t i = 0; i < rows; ++i) {
            d[i] = nn != nullptr && nn[i] ? RegSlot{} : DoubleSlot(p[i]);
          }
          break;
        }
        default: {  // kBool (kMixed non-splat returned above)
          const uint8_t* p = static_cast<const uint8_t*>(w.val);
          for (size_t i = 0; i < rows; ++i) {
            d[i] = nn != nullptr && nn[i] ? RegSlot{} : BoolSlot(p[i] != 0);
          }
          break;
        }
      }
    }
    v[r] = SoaView{};
  }

  void Fallback1(const Instr& in) {
    ToAos(in.a);
    ExecColumnInstr(in, batch, consts, aos, rows);
    v[in.dst] = SoaView{};
  }
  void Fallback2(const Instr& in) {
    ToAos(in.a);
    ToAos(in.b);
    ExecColumnInstr(in, batch, consts, aos, rows);
    v[in.dst] = SoaView{};
  }
  void FallbackFC(const Instr& in) {
    ExecColumnInstr(in, batch, consts, aos, rows);
    v[in.dst] = SoaView{};
  }

  /// Register r as a dense double column (pre: IsNum): widens int lanes
  /// or fills a splat into `tmp`, otherwise returns the lanes directly.
  const double* AsF64(uint16_t r, double* tmp) {
    const SoaView& w = v[r];
    if (w.splat) {
      std::fill(tmp, tmp + rows, SlotToDouble(w.splat_val));
      return tmp;
    }
    if (w.cls == ColClass::kInt) {
      K.widen_i64(static_cast<const int64_t*>(w.val), tmp, rows);
      return tmp;
    }
    return static_cast<const double*>(w.val);
  }
  const int64_t* AsI64(uint16_t r, int64_t* tmp) {
    const SoaView& w = v[r];
    if (w.splat) {
      std::fill(tmp, tmp + rows, w.splat_val.v.i);
      return tmp;
    }
    return static_cast<const int64_t*>(w.val);
  }

  /// If mask `m` lives in dst's own null buffer (operand register == dst),
  /// copies it to `save` before a kernel overwrites that buffer.
  const uint8_t* GuardMask(const uint8_t* m, uint16_t dst, uint8_t* save) {
    if (m != nullptr && m == OwnNull(dst)) {
      std::memcpy(save, m, rows);
      return save;
    }
    return m;
  }

  /// Folds input masks (plus, when `extra`, a kernel-written mask already
  /// in OwnNull(dst)) into dst's null buffer; nullptr when no row is null.
  const uint8_t* FoldNulls(uint16_t dst, bool extra, const uint8_t* na,
                           const uint8_t* nb) {
    uint8_t* own = OwnNull(dst);
    if (!extra) {
      if (na == nullptr && nb == nullptr) return nullptr;
      if (na != nullptr && nb != nullptr) {
        K.or_bool(na, nb, own, rows);
      } else {
        const uint8_t* only = na != nullptr ? na : nb;
        if (only != own) std::memcpy(own, only, rows);
      }
    } else {
      if (na != nullptr) K.or_bool(own, na, own, rows);
      if (nb != nullptr) K.or_bool(own, nb, own, rows);
    }
    return K.any_byte(own, rows) ? own : nullptr;
  }

  /// Truthiness bytes of SoA register r (null rows fold to 0, matching
  /// Truthy(null)); pre: neither splat nor AoS. Written into `tmp`
  /// unless r's existing bytes already are exactly that.
  const uint8_t* BoolBytes(uint16_t r, uint8_t* tmp) {
    const SoaView& w = v[r];
    switch (w.cls) {
      case ColClass::kBool: {
        const uint8_t* p = static_cast<const uint8_t*>(w.val);
        if (w.null == nullptr) return p;
        K.andnot_bool(p, w.null, tmp, rows);
        return tmp;
      }
      case ColClass::kInt:
        K.truthy_i64(static_cast<const int64_t*>(w.val), tmp, rows);
        break;
      case ColClass::kDouble:
        K.truthy_f64(static_cast<const double*>(w.val), tmp, rows);
        break;
      default:
        return nullptr;  // unreachable by precondition
    }
    if (w.null != nullptr) K.andnot_bool(tmp, w.null, tmp, rows);
    return tmp;
  }

  void LoadField(const Instr& in) {
    switch (batch.ColumnClass(in.a)) {
      case ColClass::kInt: {
        SoaView w;
        w.cls = ColClass::kInt;
        w.val = batch.IntColumn(in.a);
        v[in.dst] = w;
        return;
      }
      case ColClass::kDouble: {
        SoaView w;
        w.cls = ColClass::kDouble;
        w.val = batch.DoubleColumn(in.a);
        v[in.dst] = w;
        return;
      }
      case ColClass::kBool: {
        SoaView w;
        w.cls = ColClass::kBool;
        w.val = batch.BoolColumn(in.a);
        v[in.dst] = w;
        return;
      }
      case ColClass::kMixed:
        break;
    }
    const RegSlot* src = batch.ColumnPtr(in.a);
    if (src == nullptr) {
      SplatOut(in.dst, RegSlot{});  // absent field: null on every row
      return;
    }
    RegSlot* d = aos + static_cast<size_t>(in.dst) * rows;
    std::copy(src, src + rows, d);
    v[in.dst] = SoaView{};
  }

  void Arith(const Instr& in) {
    const SoaView& wa = v[in.a];
    const SoaView& wb = v[in.b];
    if (wa.splat && wb.splat) {
      SplatOut(in.dst, ScalarOp(in.op, wa.splat_val, wb.splat_val));
      return;
    }
    if (InAos(wa) || InAos(wb)) {
      Fallback2(in);
      return;
    }
    if (!IsNum(wa) || !IsNum(wb)) {
      // A non-numeric operand (bool column, null/string splat) makes
      // every row null — exactly NumericSlotOp's guard.
      SplatOut(in.dst, RegSlot{});
      return;
    }
    const uint8_t* na = NullOf(in.a);
    const uint8_t* nb = NullOf(in.b);
    if (wa.cls == ColClass::kInt && wb.cls == ColClass::kInt) {
      const int64_t* pa = AsI64(in.a, TmpI64(0));
      const int64_t* pb = AsI64(in.b, TmpI64(1));
      int64_t* out = OwnI64(in.dst);
      if (in.op == OpCode::kAdd) {
        K.add_i64(pa, pb, out, rows);
      } else if (in.op == OpCode::kSub) {
        K.sub_i64(pa, pb, out, rows);
      } else {
        K.mul_i64(pa, pb, out, rows);
      }
      SetNum(in.dst, ColClass::kInt, FoldNulls(in.dst, false, na, nb));
    } else {
      const double* pa = AsF64(in.a, TmpF64(0));
      const double* pb = AsF64(in.b, TmpF64(1));
      double* out = OwnF64(in.dst);
      if (in.op == OpCode::kAdd) {
        K.add_f64(pa, pb, out, rows);
      } else if (in.op == OpCode::kSub) {
        K.sub_f64(pa, pb, out, rows);
      } else {
        K.mul_f64(pa, pb, out, rows);
      }
      SetNum(in.dst, ColClass::kDouble, FoldNulls(in.dst, false, na, nb));
    }
  }

  void Div(const Instr& in) {
    const SoaView& wa = v[in.a];
    const SoaView& wb = v[in.b];
    if (wa.splat && wb.splat) {
      SplatOut(in.dst, SlotDiv(wa.splat_val, wb.splat_val));
      return;
    }
    if (InAos(wa) || InAos(wb)) {
      Fallback2(in);
      return;
    }
    if (!IsNum(wa) || !IsNum(wb)) {
      SplatOut(in.dst, RegSlot{});
      return;
    }
    const uint8_t* na = GuardMask(NullOf(in.a), in.dst, mask_tmp);
    const uint8_t* nb = GuardMask(NullOf(in.b), in.dst, mask_tmp + rows);
    const double* pa = AsF64(in.a, TmpF64(0));
    const double* pb = AsF64(in.b, TmpF64(1));
    K.div_f64(pa, pb, OwnF64(in.dst), OwnNull(in.dst), rows);
    SetNum(in.dst, ColClass::kDouble, FoldNulls(in.dst, true, na, nb));
  }

  void Neg(const Instr& in) {
    const SoaView& wa = v[in.a];
    if (wa.splat) {
      SplatOut(in.dst, ScalarOp(in.op, wa.splat_val, RegSlot{}));
      return;
    }
    if (InAos(wa)) {
      Fallback1(in);
      return;
    }
    if (wa.cls == ColClass::kInt) {
      const uint8_t* na = NullOf(in.a);
      K.neg_i64(static_cast<const int64_t*>(wa.val), OwnI64(in.dst), rows);
      SetNum(in.dst, ColClass::kInt, FoldNulls(in.dst, false, na, nullptr));
    } else if (wa.cls == ColClass::kDouble) {
      const uint8_t* na = NullOf(in.a);
      K.neg_f64(static_cast<const double*>(wa.val), OwnF64(in.dst), rows);
      SetNum(in.dst, ColClass::kDouble,
             FoldNulls(in.dst, false, na, nullptr));
    } else {
      SplatOut(in.dst, RegSlot{});  // bool columns negate to null
    }
  }

  void Cmp(const Instr& in) {
    const int idx =
        static_cast<int>(in.op) - static_cast<int>(OpCode::kCmpEq);
    const SoaView& wa = v[in.a];
    const SoaView& wb = v[in.b];
    if (wa.splat && wb.splat) {
      SplatOut(in.dst, SlotCmp(in.op, wa.splat_val, wb.splat_val));
      return;
    }
    if (InAos(wa) || InAos(wb)) {
      Fallback2(in);
      return;
    }
    const bool eq = in.op == OpCode::kCmpEq;
    if (wa.cls == ColClass::kBool && wb.cls == ColClass::kBool &&
        (eq || in.op == OpCode::kCmpNe)) {
      const uint8_t* na = GuardMask(NullOf(in.a), in.dst, mask_tmp);
      const uint8_t* nb = GuardMask(NullOf(in.b), in.dst, mask_tmp + rows);
      uint8_t* out = OwnVal(in.dst);
      if (wb.splat) {
        (eq ? K.cmp_bool_eq_k : K.cmp_bool_ne_k)(
            static_cast<const uint8_t*>(wa.val), wb.splat_val.v.b ? 1 : 0,
            out, rows);
      } else if (wa.splat) {
        (eq ? K.cmp_bool_eq_k : K.cmp_bool_ne_k)(
            static_cast<const uint8_t*>(wb.val), wa.splat_val.v.b ? 1 : 0,
            out, rows);
      } else {
        (eq ? K.cmp_bool_eq : K.cmp_bool_ne)(
            static_cast<const uint8_t*>(wa.val),
            static_cast<const uint8_t*>(wb.val), out, rows);
      }
      SetBool(in.dst, FoldNulls(in.dst, false, na, nb));
      return;
    }
    if (IsNum(wa) && IsNum(wb)) {
      const uint8_t* na = GuardMask(NullOf(in.a), in.dst, mask_tmp);
      const uint8_t* nb = GuardMask(NullOf(in.b), in.dst, mask_tmp + rows);
      uint8_t* out = OwnVal(in.dst);
      if (wa.cls == ColClass::kInt && wb.cls == ColClass::kInt) {
        if (wb.splat) {
          K.cmp_i64_k[idx](static_cast<const int64_t*>(wa.val),
                           wb.splat_val.v.i, out, rows);
        } else if (wa.splat) {
          K.cmp_i64_k[MirrorCmpIdx(idx)](
              static_cast<const int64_t*>(wb.val), wa.splat_val.v.i, out,
              rows);
        } else {
          K.cmp_i64[idx](static_cast<const int64_t*>(wa.val),
                         static_cast<const int64_t*>(wb.val), out, rows);
        }
        SetBool(in.dst, FoldNulls(in.dst, false, na, nb));
      } else {
        if (wb.splat) {
          K.cmp_f64_k[idx](AsF64(in.a, TmpF64(0)),
                           SlotToDouble(wb.splat_val), out, OwnNull(in.dst),
                           rows);
        } else if (wa.splat) {
          K.cmp_f64_k[MirrorCmpIdx(idx)](AsF64(in.b, TmpF64(0)),
                                         SlotToDouble(wa.splat_val), out,
                                         OwnNull(in.dst), rows);
        } else {
          K.cmp_f64[idx](AsF64(in.a, TmpF64(0)), AsF64(in.b, TmpF64(1)),
                         out, OwnNull(in.dst), rows);
        }
        SetBool(in.dst, FoldNulls(in.dst, true, na, nb));
      }
      return;
    }
    // Remaining SoA pairs (bool vs numeric, bool order compares, null or
    // string splat vs a column) have no typed kernel; the generic row
    // loop is exact for all of them.
    Fallback2(in);
  }

  void CmpFC(const Instr& in) {
    const OpCode base = FusedCmpBase(in.op);
    const int idx =
        static_cast<int>(base) - static_cast<int>(OpCode::kCmpEq);
    const RegSlot k = consts[in.b];
    const ColClass sc = batch.ColumnClass(in.a);
    if (batch.ColumnPtr(in.a) == nullptr || k.type == ValueType::kNull) {
      SplatOut(in.dst, RegSlot{});  // null operand: incomparable rows
      return;
    }
    if (sc == ColClass::kInt && k.type == ValueType::kInt) {
      K.cmp_i64_k[idx](batch.IntColumn(in.a), k.v.i, OwnVal(in.dst), rows);
      SetBool(in.dst, nullptr);
      return;
    }
    if ((sc == ColClass::kInt || sc == ColClass::kDouble) &&
        IsNumeric(k.type)) {
      const double* col;
      if (sc == ColClass::kInt) {
        K.widen_i64(batch.IntColumn(in.a), TmpF64(0), rows);
        col = TmpF64(0);
      } else {
        col = batch.DoubleColumn(in.a);
      }
      K.cmp_f64_k[idx](col, SlotToDouble(k), OwnVal(in.dst),
                       OwnNull(in.dst), rows);
      SetBool(in.dst, K.any_byte(OwnNull(in.dst), rows) ? OwnNull(in.dst)
                                                        : nullptr);
      return;
    }
    if (sc == ColClass::kBool && k.type == ValueType::kBool &&
        (base == OpCode::kCmpEq || base == OpCode::kCmpNe)) {
      (base == OpCode::kCmpEq ? K.cmp_bool_eq_k : K.cmp_bool_ne_k)(
          batch.BoolColumn(in.a), k.v.b ? 1 : 0, OwnVal(in.dst), rows);
      SetBool(in.dst, nullptr);
      return;
    }
    if (sc != ColClass::kMixed && sc != ClassOfType(k.type)) {
      // Uniform column of one type vs a const of another (and not both
      // numeric): incomparable on every row.
      SplatOut(in.dst, RegSlot{});
      return;
    }
    FallbackFC(in);  // mixed/string columns, bool order compares
  }

  void Not(const Instr& in) {
    const SoaView& wa = v[in.a];
    if (wa.splat) {
      SplatOut(in.dst, ScalarOp(in.op, wa.splat_val, RegSlot{}));
      return;
    }
    if (InAos(wa)) {
      Fallback1(in);
      return;
    }
    uint8_t* out = OwnVal(in.dst);
    K.not_bool(BoolBytes(in.a, out), out, rows);
    SetBool(in.dst, nullptr);
  }

  void AndOr(const Instr& in, bool is_and) {
    const SoaView& wa = v[in.a];
    const SoaView& wb = v[in.b];
    if (InAos(wa) || InAos(wb)) {
      Fallback2(in);
      return;
    }
    if (wa.splat && wb.splat) {
      SplatOut(in.dst, ScalarOp(in.op, wa.splat_val, wb.splat_val));
      return;
    }
    if (wa.splat || wb.splat) {
      const bool s = SlotTruthy(wa.splat ? wa.splat_val : wb.splat_val);
      if (is_and && !s) {
        SplatOut(in.dst, BoolSlot(false));
        return;
      }
      if (!is_and && s) {
        SplatOut(in.dst, BoolSlot(true));
        return;
      }
      // The splat side is the connective's identity; the result is the
      // other side's truthiness.
      const uint16_t other = wa.splat ? in.b : in.a;
      uint8_t* out = OwnVal(in.dst);
      const uint8_t* p = BoolBytes(other, out);
      if (p != out) std::memcpy(out, p, rows);
      SetBool(in.dst, nullptr);
      return;
    }
    uint8_t* out = OwnVal(in.dst);
    const uint8_t* pa;
    const uint8_t* pb;
    if (in.a == in.b) {
      pa = pb = BoolBytes(in.a, out);
    } else if (in.b == in.dst) {
      // Computing pa into dst's buffers first would clobber b's storage.
      pb = BoolBytes(in.b, OwnNull(in.dst));
      pa = BoolBytes(in.a, mask_tmp);
    } else {
      pa = BoolBytes(in.a, out);
      pb = BoolBytes(in.b, OwnNull(in.dst));
    }
    (is_and ? K.and_bool : K.or_bool)(pa, pb, out, rows);
    SetBool(in.dst, nullptr);
  }

  void Ret(const Instr& in, uint8_t* out_bytes, uint64_t* out_words,
           uint8_t* ret_tmp) {
    const SoaView& wa = v[in.a];
    uint8_t* tmp = out_bytes != nullptr ? out_bytes : ret_tmp;
    const uint8_t* p;
    if (wa.splat) {
      std::fill(tmp, tmp + rows,
                static_cast<uint8_t>(SlotTruthy(wa.splat_val) ? 1 : 0));
      p = tmp;
    } else if (InAos(wa)) {
      const RegSlot* a = aos + static_cast<size_t>(in.a) * rows;
      for (size_t r = 0; r < rows; ++r) tmp[r] = SlotTruthy(a[r]) ? 1 : 0;
      p = tmp;
    } else {
      p = BoolBytes(in.a, tmp);
    }
    if (out_bytes != nullptr && p != out_bytes) {
      std::memcpy(out_bytes, p, rows);
    }
    if (out_words != nullptr) K.pack_bits(p, rows, out_words);
  }
};

}  // namespace

void BytecodeProgram::RunColumnSoa(const ColumnarBatch& batch,
                                   ExecScratch* scratch, uint8_t* out_bytes,
                                   uint64_t* out_words) const {
  const size_t rows = batch.num_rows();
  if (rows == 0) return;
  const size_t nregs = static_cast<size_t>(num_registers_);
  if (scratch->cols.size() < nregs * rows) {
    scratch->cols.resize(nregs * rows);
  }
  scratch->soa_view.assign(nregs, SoaView{});
  if (scratch->soa_lanes.size() < nregs * rows) {
    scratch->soa_lanes.resize(nregs * rows);
  }
  if (scratch->soa_bytes.size() < 2 * nregs * rows) {
    scratch->soa_bytes.resize(2 * nregs * rows);
  }
  if (scratch->num_tmp.size() < 2 * rows) scratch->num_tmp.resize(2 * rows);
  if (scratch->byte_tmp.size() < 3 * rows) {
    scratch->byte_tmp.resize(3 * rows);
  }
  SoaExec ex{*simd::KernelsFor(scratch->simd),
             batch,
             const_slots_.data(),
             rows,
             scratch->cols.data(),
             scratch->soa_view.data(),
             scratch->soa_lanes.data(),
             scratch->soa_bytes.data(),
             scratch->num_tmp.data(),
             scratch->byte_tmp.data()};
  uint8_t* const ret_tmp = scratch->byte_tmp.data() + 2 * rows;
  for (const Instr& in : instrs_) {
    switch (in.op) {
      case OpCode::kLoadConst:
        ex.SplatOut(in.dst, const_slots_[in.a]);
        break;
      case OpCode::kLoadField:
        ex.LoadField(in);
        break;
      case OpCode::kAdd:
      case OpCode::kSub:
      case OpCode::kMul:
        ex.Arith(in);
        break;
      case OpCode::kDiv:
        ex.Div(in);
        break;
      case OpCode::kCmpEq:
      case OpCode::kCmpNe:
      case OpCode::kCmpLt:
      case OpCode::kCmpLe:
      case OpCode::kCmpGt:
      case OpCode::kCmpGe:
        ex.Cmp(in);
        break;
      case OpCode::kCmpEqFC:
      case OpCode::kCmpNeFC:
      case OpCode::kCmpLtFC:
      case OpCode::kCmpLeFC:
      case OpCode::kCmpGtFC:
      case OpCode::kCmpGeFC:
        ex.CmpFC(in);
        break;
      case OpCode::kNot:
        ex.Not(in);
        break;
      case OpCode::kNeg:
        ex.Neg(in);
        break;
      case OpCode::kAndEager:
        ex.AndOr(in, true);
        break;
      case OpCode::kOrEager:
        ex.AndOr(in, false);
        break;
      case OpCode::kRet:
        ex.Ret(in, out_bytes, out_words, ret_tmp);
        return;
    }
  }
}

void BytecodeProgram::RunPredicateColumn(const ColumnarBatch& batch,
                                         ExecScratch* scratch,
                                         uint8_t* out) const {
  RunColumnSoa(batch, scratch, out, nullptr);
}

void BytecodeProgram::RunPredicateColumnBits(const ColumnarBatch& batch,
                                             ExecScratch* scratch,
                                             uint64_t* out_words) const {
  RunColumnSoa(batch, scratch, nullptr, out_words);
}

// --- Disassembler -------------------------------------------------------

std::string BytecodeProgram::Disassemble() const {
  std::string out;
  out.append("; regs=").append(std::to_string(num_registers_));
  out.append(" consts=").append(std::to_string(consts_.size()));
  out.append(" fields=[");
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out.append(",");
    out.append(std::to_string(fields_[i]));
  }
  out.append("]\n");
  for (size_t i = 0; i < consts_.size(); ++i) {
    out.append("; c").append(std::to_string(i)).append(" = ");
    out.append(ValueTypeName(consts_[i].type()));
    out.append(":").append(consts_[i].ToString()).append("\n");
  }
  for (size_t i = 0; i < instrs_.size(); ++i) {
    const Instr& in = instrs_[i];
    char head[24];
    std::snprintf(head, sizeof(head), "L%zu:", i);
    out.append(head);
    out.append(" ").append(OpCodeName(in.op));
    switch (in.op) {
      case OpCode::kLoadConst:
        out.append(" r").append(std::to_string(in.dst));
        out.append(", c").append(std::to_string(in.a));
        break;
      case OpCode::kLoadField:
        out.append(" r").append(std::to_string(in.dst));
        out.append(", f").append(std::to_string(in.a));
        break;
      case OpCode::kAdd:
      case OpCode::kSub:
      case OpCode::kMul:
      case OpCode::kDiv:
      case OpCode::kCmpEq:
      case OpCode::kCmpNe:
      case OpCode::kCmpLt:
      case OpCode::kCmpLe:
      case OpCode::kCmpGt:
      case OpCode::kCmpGe:
      case OpCode::kAndEager:
      case OpCode::kOrEager:
        out.append(" r").append(std::to_string(in.dst));
        out.append(", r").append(std::to_string(in.a));
        out.append(", r").append(std::to_string(in.b));
        break;
      case OpCode::kCmpEqFC:
      case OpCode::kCmpNeFC:
      case OpCode::kCmpLtFC:
      case OpCode::kCmpLeFC:
      case OpCode::kCmpGtFC:
      case OpCode::kCmpGeFC:
        out.append(" r").append(std::to_string(in.dst));
        out.append(", f").append(std::to_string(in.a));
        out.append(", c").append(std::to_string(in.b));
        break;
      case OpCode::kNot:
      case OpCode::kNeg:
        out.append(" r").append(std::to_string(in.dst));
        out.append(", r").append(std::to_string(in.a));
        break;
      case OpCode::kRet:
        out.append(" r").append(std::to_string(in.a));
        break;
    }
    out.append("\n");
  }
  return out;
}

// --- Compiler -----------------------------------------------------------

/// Shallow operand classifier backing the comparison-fusion peephole:
/// reports whether a node is a usable field reference or a literal
/// without recursing. A negative field index is classified as the null
/// literal it always evaluates to (matching VisitFieldRef's fold).
class NodeShape : private ExpressionVisitor {
 public:
  static NodeShape Of(const Expression& expr) {
    NodeShape shape;
    expr.Accept(&shape);
    return shape;
  }

  bool is_literal = false;
  bool is_field = false;
  Value literal;
  int field = -1;

 private:
  void VisitLiteral(const Value& value) override {
    is_literal = true;
    literal = value;
  }
  void VisitFieldRef(int index, const std::string& name) override {
    (void)name;
    if (index < 0) {
      is_literal = true;
      literal = Value::Null();
    } else if (index <= kMaxOperand) {
      is_field = true;
      field = index;
    }
  }
  void VisitBinary(BinaryOp, const Expression&, const Expression&) override {}
  void VisitNot(const Expression&) override {}
  void VisitNegate(const Expression&) override {}
};

/// Tree-walking code generator. Register allocation is stack-shaped: a
/// node's result lands in `dst`, binary operands in `dst` / `dst + 1`, so
/// the register count equals the tree depth. AND/OR become eager boolean
/// opcodes — value-identical to the interpreter's short-circuit because
/// no opcode traps — so the stream is straight-line and runs
/// column-at-a-time. `field OP literal` comparisons fuse into one
/// instruction (mirrored when the literal is on the left: c < f  ==
/// f > c, and incomparability is symmetric).
class PredicateCompiler : private ExpressionVisitor {
 public:
  Result<std::shared_ptr<const BytecodeProgram>> Compile(
      const Expression& root) {
    program_ = std::shared_ptr<BytecodeProgram>(new BytecodeProgram());
    CompileInto(root, 0);
    Instr ret;
    ret.op = OpCode::kRet;
    ret.a = 0;
    Emit(ret);
    if (!error_.ok()) return error_;
    std::sort(program_->fields_.begin(), program_->fields_.end());
    // Prebuild the unboxed constant pool; string slots borrow from the
    // program-owned consts_ vector, which is final from here on.
    program_->const_slots_.reserve(program_->consts_.size());
    for (const Value& v : program_->consts_) {
      program_->const_slots_.push_back(SlotFromValue(v));
    }
    std::shared_ptr<const BytecodeProgram> done = std::move(program_);
    return done;
  }

 private:
  void CompileInto(const Expression& expr, int dst) {
    if (dst > kMaxOperand) {
      Fail("expression tree too deep for 16-bit registers");
      return;
    }
    if (dst + 1 > program_->num_registers_) {
      program_->num_registers_ = dst + 1;
    }
    dst_ = dst;
    expr.Accept(this);
  }

  void VisitLiteral(const Value& value) override {
    Instr in;
    in.op = OpCode::kLoadConst;
    in.dst = static_cast<uint16_t>(dst_);
    in.a = InternConst(value);
    Emit(in);
  }

  void VisitFieldRef(int index, const std::string& name) override {
    (void)name;  // diagnostics only; evaluation is positional
    if (index < 0) {
      // The interpreter yields null for a negative index on every tuple;
      // fold that to a null constant.
      VisitLiteral(Value::Null());
      return;
    }
    if (index > kMaxOperand) {
      Fail("field index exceeds 16-bit operand");
      return;
    }
    Instr in;
    in.op = OpCode::kLoadField;
    in.dst = static_cast<uint16_t>(dst_);
    in.a = static_cast<uint16_t>(index);
    Emit(in);
    RecordField(index);
  }

  void VisitBinary(BinaryOp op, const Expression& lhs,
                   const Expression& rhs) override {
    const int dst = dst_;
    if (OpCode fused; FusedCmpOp(op, &fused)) {
      const NodeShape l = NodeShape::Of(lhs);
      const NodeShape r = NodeShape::Of(rhs);
      if (l.is_field && r.is_literal) {
        EmitFusedCmp(fused, dst, l.field, r.literal);
        return;
      }
      if (l.is_literal && r.is_field) {
        EmitFusedCmp(MirrorFusedCmp(fused), dst, r.field, l.literal);
        return;
      }
    }
    CompileInto(lhs, dst);
    CompileInto(rhs, dst + 1);
    Instr in;
    switch (op) {
      case BinaryOp::kAdd:
        in.op = OpCode::kAdd;
        break;
      case BinaryOp::kSub:
        in.op = OpCode::kSub;
        break;
      case BinaryOp::kMul:
        in.op = OpCode::kMul;
        break;
      case BinaryOp::kDiv:
        in.op = OpCode::kDiv;
        break;
      case BinaryOp::kEq:
        in.op = OpCode::kCmpEq;
        break;
      case BinaryOp::kNe:
        in.op = OpCode::kCmpNe;
        break;
      case BinaryOp::kLt:
        in.op = OpCode::kCmpLt;
        break;
      case BinaryOp::kLe:
        in.op = OpCode::kCmpLe;
        break;
      case BinaryOp::kGt:
        in.op = OpCode::kCmpGt;
        break;
      case BinaryOp::kGe:
        in.op = OpCode::kCmpGe;
        break;
      case BinaryOp::kAnd:
        in.op = OpCode::kAndEager;
        break;
      case BinaryOp::kOr:
        in.op = OpCode::kOrEager;
        break;
      default:
        Fail("unhandled binary operator");
        return;
    }
    in.dst = static_cast<uint16_t>(dst);
    in.a = static_cast<uint16_t>(dst);
    in.b = static_cast<uint16_t>(dst + 1);
    Emit(in);
  }

  void VisitNot(const Expression& operand) override {
    const int dst = dst_;
    CompileInto(operand, dst);
    Instr in;
    in.op = OpCode::kNot;
    in.dst = static_cast<uint16_t>(dst);
    in.a = static_cast<uint16_t>(dst);
    Emit(in);
  }

  void VisitNegate(const Expression& operand) override {
    const int dst = dst_;
    CompileInto(operand, dst);
    Instr in;
    in.op = OpCode::kNeg;
    in.dst = static_cast<uint16_t>(dst);
    in.a = static_cast<uint16_t>(dst);
    Emit(in);
  }

  /// Maps a comparison BinaryOp to its fused field-vs-const opcode.
  static bool FusedCmpOp(BinaryOp op, OpCode* fused) {
    switch (op) {
      case BinaryOp::kEq:
        *fused = OpCode::kCmpEqFC;
        return true;
      case BinaryOp::kNe:
        *fused = OpCode::kCmpNeFC;
        return true;
      case BinaryOp::kLt:
        *fused = OpCode::kCmpLtFC;
        return true;
      case BinaryOp::kLe:
        *fused = OpCode::kCmpLeFC;
        return true;
      case BinaryOp::kGt:
        *fused = OpCode::kCmpGtFC;
        return true;
      case BinaryOp::kGe:
        *fused = OpCode::kCmpGeFC;
        return true;
      default:
        return false;
    }
  }

  /// `literal OP field` fuses as the mirrored comparison with the field
  /// on the left: c < f == f > c. Eq/Ne are symmetric and the
  /// incomparable (null) result is order-independent.
  static OpCode MirrorFusedCmp(OpCode fused) {
    switch (fused) {
      case OpCode::kCmpLtFC:
        return OpCode::kCmpGtFC;
      case OpCode::kCmpLeFC:
        return OpCode::kCmpGeFC;
      case OpCode::kCmpGtFC:
        return OpCode::kCmpLtFC;
      case OpCode::kCmpGeFC:
        return OpCode::kCmpLeFC;
      default:
        return fused;  // kCmpEqFC / kCmpNeFC
    }
  }

  void EmitFusedCmp(OpCode fused, int dst, int field, const Value& literal) {
    Instr in;
    in.op = fused;
    in.dst = static_cast<uint16_t>(dst);
    in.a = static_cast<uint16_t>(field);
    in.b = InternConst(literal);
    Emit(in);
    RecordField(field);
  }

  void Emit(const Instr& in) { program_->instrs_.push_back(in); }

  /// Deduplicates by the bit-exact structural encoding (the same one the
  /// multi-query fingerprint uses), so 0.1 and a longer spelling of the
  /// same double share a pool entry while 2 and 2.0 do not.
  uint16_t InternConst(const Value& value) {
    std::string key;
    key.push_back(static_cast<char>(value.type()));
    AppendValueFingerprintKey(value, &key);
    auto [it, inserted] = const_index_.emplace(
        std::move(key), static_cast<int>(program_->consts_.size()));
    if (inserted) {
      if (program_->consts_.size() > static_cast<size_t>(kMaxOperand)) {
        Fail("constant pool exceeds 16-bit operand");
        return 0;
      }
      program_->consts_.push_back(value);
    }
    return static_cast<uint16_t>(it->second);
  }

  static void AppendValueFingerprintKey(const Value& v, std::string* out) {
    switch (v.type()) {
      case ValueType::kNull:
        return;
      case ValueType::kInt: {
        const int64_t i = v.AsInt();
        out->append(reinterpret_cast<const char*>(&i), sizeof(int64_t));
        return;
      }
      case ValueType::kDouble: {
        const double d = v.AsDouble();
        out->append(reinterpret_cast<const char*>(&d), sizeof(double));
        return;
      }
      case ValueType::kBool:
        out->push_back(v.AsBool() ? 1 : 0);
        return;
      case ValueType::kString:
        out->append(v.AsString());
        return;
    }
  }

  void RecordField(int index) {
    auto& fields = program_->fields_;
    for (const int f : fields) {
      if (f == index) return;
    }
    fields.push_back(index);
  }

  void Fail(const std::string& message) {
    if (error_.ok()) error_ = Status::InvalidArgument("compile: " + message);
  }

  std::shared_ptr<BytecodeProgram> program_;
  std::unordered_map<std::string, int> const_index_;
  Status error_ = Status::OK();
  int dst_ = 0;
};

Result<std::shared_ptr<const BytecodeProgram>> CompilePredicate(
    const Expression& expr) {
  PredicateCompiler compiler;
  return compiler.Compile(expr);
}

}  // namespace tpstream
