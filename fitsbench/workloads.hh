#ifndef FITSBENCH_WORKLOADS_HH_
#define FITSBENCH_WORKLOADS_HH_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "synth/profiles.hh"

namespace fitsbench {

/** What one benchmark workload runs, and on which inputs. */
struct Workload
{
    std::string name;
    /** Worker count of every timed pass. */
    std::size_t jobs = 1;
    /** Run the four Table-5 taint configurations after inference. */
    bool taint = false;
    /** Fill a disk cache in set-up and read from it in every pass. */
    bool warm = false;
    /** The samples, drawn from the seed; generated in set-up. */
    std::vector<fits::synth::SampleSpec> specs;
};

/**
 * The named workload at `seed`. Known names: corpus-cold, corpus-warm,
 * small-fleet, and smoke (a small mixed set used by the benchmark's
 * own smoke test). Throws std::invalid_argument on any other name.
 */
Workload makeWorkload(const std::string &name, std::uint64_t seed);

} // namespace fitsbench

#endif // FITSBENCH_WORKLOADS_HH_
