#ifndef LAYER_PROFILE_PROBE_H_
#define LAYER_PROFILE_PROBE_H_

#include <cstdint>
#include <vector>

namespace layer_profile {

/// Machine-speed probe. A shared host can run the same code tens of
/// percent slower for seconds at a time, when neighbours contend for caches
/// and memory bandwidth; that would swamp any regression bound. Between
/// rounds the benchmark times this fixed kernel of its own (sort and hash a
/// 4 MiB array, the kinds of work the engine does) and scales each round's
/// wall times to a machine on which one pass takes kNominalMs. The kernel
/// does not depend on the engine, so a slower engine still shows in full.
class MachineProbe {
 public:
  /// One pass on the reference machine.
  static constexpr double kNominalMs = 70.0;

  MachineProbe();

  /// Median of five timed passes, in milliseconds.
  double MeasureMs();

 private:
  double PassMs();

  std::vector<uint64_t> keys_;
  uint64_t sink_ = 0;
};

}  // namespace layer_profile

#endif  // LAYER_PROFILE_PROBE_H_
