#include "server/platform.h"

namespace dynamo::server {

const char*
RaplAccessName(RaplAccess access)
{
    switch (access) {
      case RaplAccess::kMsr: return "msr";
      case RaplAccess::kIpmiNodeManager: return "ipmi-nm";
    }
    return "?";
}

namespace {

// Direct MSR write: effectively instantaneous, 1/8 W units.
constexpr PlatformSpec kMsrSpec{RaplAccess::kMsr, 0, 0.125};

// BMC round-trip plus node-manager policy programming: a few hundred
// milliseconds, whole-watt granularity.
constexpr PlatformSpec kIpmiSpec{RaplAccess::kIpmiNodeManager, 250, 1.0};

}  // namespace

const PlatformSpec&
PlatformSpec::For(RaplAccess access)
{
    return access == RaplAccess::kIpmiNodeManager ? kIpmiSpec : kMsrSpec;
}

}  // namespace dynamo::server
