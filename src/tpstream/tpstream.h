#ifndef TPSTREAM_TPSTREAM_H_
#define TPSTREAM_TPSTREAM_H_

/// Umbrella header: the full public API of the TPStream library.
///
/// Typical usage:
///   - describe the input with a Schema;
///   - build a query with QueryBuilder (query/builder.h) or parse the
///     textual language (query/parser.h);
///   - run it with TPStreamOperator (core/operator.h), which honours
///     PARTITION BY itself, or spread the keys over worker threads with
///     parallel::ParallelTPStream (parallel/parallel_operator.h);
///   - consume output events (RETURN projections) or raw matches.
///
/// Lower-level building blocks (deriver, matchers, interval algebra,
/// optimizer) are usable on their own; see README.md for the module map.

#include "algebra/detection.h"
#include "algebra/interval_relation.h"
#include "algebra/pattern.h"
#include "algebra/range_bounds.h"
#include "common/event.h"
#include "common/schema.h"
#include "common/situation.h"
#include "common/status.h"
#include "common/time.h"
#include "common/value.h"
#include "core/operator.h"
#include "core/query_spec.h"
#include "derive/definition.h"
#include "derive/deriver.h"
#include "expr/aggregate.h"
#include "expr/bytecode.h"
#include "expr/expression.h"
#include "io/csv.h"
#include "matcher/low_latency_matcher.h"
#include "matcher/match.h"
#include "matcher/matcher.h"
#include "optimizer/plan_optimizer.h"
#include "parallel/parallel_operator.h"
#include "query/builder.h"
#include "query/parser.h"

#endif  // TPSTREAM_TPSTREAM_H_
