#ifndef TPSTREAM_CORE_PARTITIONED_OPERATOR_H_
#define TPSTREAM_CORE_PARTITIONED_OPERATOR_H_

#include "core/operator.h"

namespace tpstream {

/// Former name of the PARTITION BY engine; TPStreamOperator honours
/// QuerySpec::partition_field itself. New code uses TPStreamOperator.
using PartitionedTPStream = TPStreamOperator;

}  // namespace tpstream

#endif  // TPSTREAM_CORE_PARTITIONED_OPERATOR_H_
