// Runs a WorkloadSpec against an Executor and aggregates metrics.
#ifndef OBJECTBASE_WORKLOAD_RUNNER_H_
#define OBJECTBASE_WORKLOAD_RUNNER_H_

#include "src/workload/spec.h"

namespace objectbase::workload {

/// Runs the spec's transaction mix on `spec.threads` worker threads,
/// `spec.txns_per_thread` transactions each, and returns the aggregated
/// metrics.  Each transaction runs through Executor::RunTransaction, so
/// retries follow the executor's budget and backoff.  Executor stats are
/// reset at the start of the run.
RunMetrics RunWorkload(rt::Executor& exec, const WorkloadSpec& spec);

}  // namespace objectbase::workload

#endif  // OBJECTBASE_WORKLOAD_RUNNER_H_
