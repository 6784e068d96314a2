#include "server/rapl.h"

#include <algorithm>

#include "common/decay.h"

namespace dynamo::server {

Watts
RaplModel::Apply(Watts demanded, SimTime now)
{
    const Watts target = has_limit_ ? std::min(demanded, limit_) : demanded;
    if (!started_) {
        started_ = true;
        last_time_ = now;
        actual_ = target;
        return actual_;
    }
    const DecayTerms step =
        DecayOver(std::max<SimTime>(0, now - last_time_), tau_s_);
    last_time_ = std::max(last_time_, now);
    const double blend = 1.0 - step.decay;
    actual_ += (target - actual_) * blend;
    return actual_;
}

}  // namespace dynamo::server
