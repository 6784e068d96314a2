/**
 * @file
 * Platform-specific RAPL access paths.
 *
 * "Communicating with RAPL is platform-specific — we either update a
 * machine status register (MSR) directly or, when available, call the
 * API provided by the on-board node manager through IPMI." Dynamo's
 * lesson is to keep the control logic platform-agnostic behind a thin
 * platform layer; we model the two access paths' observable
 * differences: the MSR write is immediate and fine-grained (RAPL's
 * 1/8 W units), while the IPMI/node-manager path quantizes to whole
 * watts and takes an extra fraction of a second to actuate.
 */
#ifndef DYNAMO_SERVER_PLATFORM_H_
#define DYNAMO_SERVER_PLATFORM_H_

#include <cmath>

#include "common/units.h"

namespace dynamo::server {

/** How the agent reaches the RAPL power-limit controls. */
enum class RaplAccess {
    kMsr,             ///< Direct MSR write (older platforms).
    kIpmiNodeManager  ///< Node-manager API over IPMI (newer platforms).
};

/** Name of an access path ("msr" / "ipmi-nm"). */
const char* RaplAccessName(RaplAccess access);

/** Observable properties of one access path. */
struct PlatformSpec
{
    RaplAccess access = RaplAccess::kMsr;

    /** Delay between the agent's command and the limit taking hold. */
    SimTime actuation_delay_ms = 0;

    /** Power-limit granularity in watts (commands are rounded to it). */
    Watts limit_quantum = 0.125;

    /**
     * Reference spec for each access path: an entry of one shared,
     * immutable table, so servers refer to it instead of copying it.
     */
    static const PlatformSpec& For(RaplAccess access);

    /** Quantize a requested limit to this platform's granularity. */
    Watts Quantize(Watts limit) const
    {
        if (limit_quantum <= 0.0) return limit;
        return std::round(limit / limit_quantum) * limit_quantum;
    }
};

}  // namespace dynamo::server

#endif  // DYNAMO_SERVER_PLATFORM_H_
