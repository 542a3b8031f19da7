#ifndef GRAPHTIDES_PERFBENCH_SELFTEST_H_
#define GRAPHTIDES_PERFBENCH_SELFTEST_H_

namespace perfbench {

/// Runs the measurement-helper self-tests; prints each failure to stderr.
bool RunSelfTests();

}  // namespace perfbench

#endif  // GRAPHTIDES_PERFBENCH_SELFTEST_H_
