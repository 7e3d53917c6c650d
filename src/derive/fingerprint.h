#ifndef TPSTREAM_DERIVE_FINGERPRINT_H_
#define TPSTREAM_DERIVE_FINGERPRINT_H_

#include <string>

#include "derive/definition.h"

namespace tpstream {

/// Canonical structural fingerprint of one situation definition: the
/// predicate φ (via Expression::AppendFingerprint — positional,
/// name-free), the aggregate battery γ (kind + input field per
/// aggregate; output names are labels, not semantics) and the duration
/// constraint τ. Two definitions with equal fingerprints derive
/// byte-identical situation streams from any input event stream — the
/// sharing criterion of a multi-query TPStreamOperator, which derives
/// each fingerprint once per event. The symbol name is excluded:
/// it only binds the definition to a pattern position within one query.
std::string DefinitionFingerprint(const SituationDefinition& def);

}  // namespace tpstream

#endif  // TPSTREAM_DERIVE_FINGERPRINT_H_
