// The perfbench workloads. Each builds its devices and stacks, runs
// whole rounds until --seconds have passed, checks every output, and fills
// an Outcome with the end-to-end metrics and (traced) the layer metrics.
#pragma once

#include "bench.h"

namespace perfbench {

struct Run {
  Outcome out;
  double setup_s = 0;  ///< from the process's start to the end of set-up
};

Run run_churn(const Options& opt, SpanLog& log);
Run run_stacked(const Options& opt, SpanLog& log);
Run run_near_oom(const Options& opt, SpanLog& log);

/// Traced stacked runs: the AllocService layer, as service.* layer detail.
void service_probe(const Options& opt, SpanLog& log, Outcome& out);

}  // namespace perfbench
