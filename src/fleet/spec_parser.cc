#include "fleet/spec_parser.h"

#include "policy/capping_policy.h"

#include <cstdio>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace dynamo::fleet {
namespace {

std::string
Strip(const std::string& s)
{
    const auto first = s.find_first_not_of(" \t\r\n");
    if (first == std::string::npos) return "";
    const auto last = s.find_last_not_of(" \t\r\n");
    return s.substr(first, last - first + 1);
}

/** Structural errors (bad syntax, unknown key): std::runtime_error. */
[[noreturn]] void
Fail(std::size_t line_no, const std::string& line, const std::string& why)
{
    throw std::runtime_error("fleet spec line " + std::to_string(line_no) +
                             ": " + why + ": '" + line + "'");
}

/**
 * Value errors (bad numbers, unknown or removed names):
 * std::invalid_argument naming the offending key and line, so
 * "servers_per_rpp = -5" and "seed = 99999…9" fail
 * with WHERE and WHY instead of a raw std::out_of_range from the
 * bowels of std::stoull.
 */
[[noreturn]] void
FailNumeric(const std::string& key, std::size_t line_no,
            const std::string& line, const std::string& why)
{
    throw std::invalid_argument("fleet spec line " + std::to_string(line_no) +
                                ": key '" + key + "': " + why + ": '" + line +
                                "'");
}

double
ParseDouble(const std::string& key, const std::string& value,
            std::size_t line_no, const std::string& line)
{
    std::size_t used = 0;
    double parsed = 0.0;
    try {
        parsed = std::stod(value, &used);
    } catch (const std::out_of_range&) {
        FailNumeric(key, line_no, line, "number out of range");
    } catch (const std::exception&) {
        FailNumeric(key, line_no, line, "expected a number");
    }
    if (!Strip(value.substr(used)).empty()) {
        FailNumeric(key, line_no, line,
                    "trailing garbage after number '" + value.substr(0, used) +
                        "'");
    }
    return parsed;
}

/** A double that must be >= 0 (watts, fractions, amplitudes). */
double
ParseNonNegDouble(const std::string& key, const std::string& value,
                  std::size_t line_no, const std::string& line)
{
    const double parsed = ParseDouble(key, value, line_no, line);
    if (parsed < 0.0) {
        FailNumeric(key, line_no, line, "must not be negative");
    }
    return parsed;
}

std::uint64_t
ParseU64(const std::string& key, const std::string& value, std::size_t line_no,
         const std::string& line)
{
    // Parsed as an integer, not via ParseDouble: seeds above 2^53
    // would silently lose low bits in a double round trip. std::stoull
    // happily *wraps* "-5" to 18446744073709551611, so negatives are
    // rejected up front.
    if (!value.empty() && value[0] == '-') {
        FailNumeric(key, line_no, line, "must not be negative");
    }
    std::size_t used = 0;
    std::uint64_t parsed = 0;
    try {
        parsed = std::stoull(value, &used);
    } catch (const std::out_of_range&) {
        FailNumeric(key, line_no, line, "integer out of range (max 2^64-1)");
    } catch (const std::exception&) {
        FailNumeric(key, line_no, line, "expected an unsigned integer");
    }
    if (!Strip(value.substr(used)).empty()) {
        FailNumeric(key, line_no, line,
                    "trailing garbage after integer '" + value.substr(0, used) +
                        "'");
    }
    return parsed;
}

/** A count (servers, rpps): an exact unsigned integer, not a double —
 *  "240.7" and "-5" fail loudly instead of truncating or wrapping. */
std::size_t
ParseCount(const std::string& key, const std::string& value,
           std::size_t line_no, const std::string& line)
{
    const std::uint64_t parsed = ParseU64(key, value, line_no, line);
    if (parsed > std::numeric_limits<std::size_t>::max()) {
        FailNumeric(key, line_no, line, "count out of range");
    }
    return static_cast<std::size_t>(parsed);
}

/** A millisecond period: a positive integer that fits in SimTime. */
SimTime
ParsePeriodMs(const std::string& key, const std::string& value,
              std::size_t line_no, const std::string& line)
{
    const std::uint64_t parsed = ParseU64(key, value, line_no, line);
    if (parsed == 0 ||
        parsed > static_cast<std::uint64_t>(
                     std::numeric_limits<SimTime>::max())) {
        FailNumeric(key, line_no, line,
                    "period must be a positive millisecond count");
    }
    return static_cast<SimTime>(parsed);
}

/**
 * Structural validation of a `scenario = name(k=v,...)` value. The
 * fleet layer cannot see the replay-scenario catalog (replay depends
 * on fleet, not vice versa), so this checks shape only: a well-formed
 * name, balanced parentheses, `k=v` pairs with numeric values. Whether
 * the name and parameter keys exist is checked at use time by
 * replay::ParseScenarioSpec.
 */
void
ValidateScenarioValue(const std::string& key, const std::string& value,
                      std::size_t line_no, const std::string& line)
{
    const auto paren = value.find('(');
    const std::string name =
        Strip(paren == std::string::npos ? value : value.substr(0, paren));
    if (name.empty()) {
        FailNumeric(key, line_no, line, "missing scenario name");
    }
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                        c == '-' || c == '_';
        if (!ok) {
            FailNumeric(key, line_no, line,
                        "bad character in scenario name '" + name + "'");
        }
    }
    if (paren == std::string::npos) return;
    if (value.back() != ')') {
        FailNumeric(key, line_no, line, "unbalanced '(' in scenario value");
    }
    const std::string args =
        value.substr(paren + 1, value.size() - paren - 2);
    if (Strip(args).empty()) return;
    std::istringstream parts(args);
    std::string part;
    while (std::getline(parts, part, ',')) {
        const auto eq = part.find('=');
        if (eq == std::string::npos) {
            FailNumeric(key, line_no, line,
                        "scenario parameter '" + Strip(part) +
                            "' is not k=v");
        }
        const std::string pkey = Strip(part.substr(0, eq));
        if (pkey.empty()) {
            FailNumeric(key, line_no, line, "empty scenario parameter name");
        }
        ParseDouble(key, Strip(part.substr(eq + 1)), line_no, line);
    }
}

bool
ParseBool(const std::string& value, std::size_t line_no, const std::string& line)
{
    if (value == "true" || value == "1" || value == "yes" || value == "on") {
        return true;
    }
    if (value == "false" || value == "0" || value == "no" || value == "off") {
        return false;
    }
    Fail(line_no, line, "expected a boolean");
}

}  // namespace

ServiceMix
ParseServiceMix(const std::string& text)
{
    const std::string trimmed = Strip(text);
    if (trimmed == "datacenter") return ServiceMix::Datacenter();
    if (trimmed == "frontend") return ServiceMix::FrontEndRow();

    ServiceMix mix;
    std::istringstream parts(trimmed);
    std::string part;
    while (std::getline(parts, part, ',')) {
        part = Strip(part);
        if (part.empty()) continue;
        const auto colon = part.find(':');
        std::string name = part;
        double weight = 1.0;
        if (colon != std::string::npos) {
            name = Strip(part.substr(0, colon));
            const std::string weight_text = Strip(part.substr(colon + 1));
            std::size_t used = 0;
            try {
                weight = std::stod(weight_text, &used);
            } catch (const std::exception&) {
                throw std::invalid_argument("service mix share '" + part +
                                            "': expected a numeric weight");
            }
            if (used != weight_text.size() || weight < 0.0) {
                throw std::invalid_argument(
                    "service mix share '" + part +
                    "': weight must be a non-negative number");
            }
        }
        mix.shares.push_back(
            ServiceMix::Share{workload::ParseServiceType(name), weight});
    }
    if (mix.shares.empty()) {
        throw std::runtime_error("empty service mix: '" + text + "'");
    }
    return mix;
}

FleetSpec
ParseFleetSpec(std::istream& in)
{
    FleetSpec spec;
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        const auto comment = line.find('#');
        std::string body =
            Strip(comment == std::string::npos ? line : line.substr(0, comment));
        if (body.empty()) continue;
        const auto eq = body.find('=');
        if (eq == std::string::npos) Fail(line_no, line, "expected key = value");
        const std::string key = Strip(body.substr(0, eq));
        const std::string value = Strip(body.substr(eq + 1));
        if (value.empty()) Fail(line_no, line, "missing value");

        if (key == "scope") {
            if (value == "rpp") {
                spec.scope = FleetScope::kRpp;
            } else if (value == "sb") {
                spec.scope = FleetScope::kSb;
            } else if (value == "msb") {
                spec.scope = FleetScope::kMsb;
            } else {
                Fail(line_no, line, "scope must be rpp|sb|msb");
            }
        } else if (key == "servers_per_rpp") {
            spec.servers_per_rpp = ParseCount(key, value, line_no, line);
        } else if (key == "rpps_per_sb") {
            spec.topology.rpps_per_sb = ParseCount(key, value, line_no, line);
        } else if (key == "sbs_per_msb") {
            spec.topology.sbs_per_msb = ParseCount(key, value, line_no, line);
        } else if (key == "rpp_rated_kw") {
            spec.topology.rpp_rated =
                ParseNonNegDouble(key, value, line_no, line) * 1000.0;
        } else if (key == "sb_rated_kw") {
            spec.topology.sb_rated =
                ParseNonNegDouble(key, value, line_no, line) * 1000.0;
        } else if (key == "msb_rated_kw") {
            spec.topology.msb_rated =
                ParseNonNegDouble(key, value, line_no, line) * 1000.0;
        } else if (key == "rpp_rated_w") {
            spec.topology.rpp_rated =
                ParseNonNegDouble(key, value, line_no, line);
        } else if (key == "sb_rated_w") {
            spec.topology.sb_rated = ParseNonNegDouble(key, value, line_no, line);
        } else if (key == "msb_rated_w") {
            spec.topology.msb_rated =
                ParseNonNegDouble(key, value, line_no, line);
        } else if (key == "quota_fill") {
            spec.topology.quota_fill =
                ParseNonNegDouble(key, value, line_no, line);
        } else if (key == "mix") {
            spec.mix = ParseServiceMix(value);
        } else if (key == "haswell_fraction") {
            spec.haswell_fraction = ParseNonNegDouble(key, value, line_no, line);
        } else if (key == "sensorless_fraction") {
            spec.sensorless_fraction =
                ParseNonNegDouble(key, value, line_no, line);
        } else if (key == "gpu_fraction") {
            spec.gpu_fraction = ParseNonNegDouble(key, value, line_no, line);
        } else if (key == "scenario") {
            ValidateScenarioValue(key, value, line_no, line);
            spec.scenario = value;
        } else if (key == "turbo") {
            spec.turbo_enabled = ParseBool(value, line_no, line);
        } else if (key == "tor_switch_power_w") {
            spec.tor_switch_power = ParseNonNegDouble(key, value, line_no, line);
        } else if (key == "diurnal_amplitude") {
            spec.diurnal_amplitude =
                ParseNonNegDouble(key, value, line_no, line);
        } else if (key == "seed") {
            spec.seed = ParseU64(key, value, line_no, line);
        } else if (key == "with_dynamo") {
            spec.with_dynamo = ParseBool(value, line_no, line);
        } else if (key == "with_breaker_validation") {
            spec.with_breaker_validation = ParseBool(value, line_no, line);
        } else if (key == "with_load_shedding") {
            spec.with_load_shedding = ParseBool(value, line_no, line);
        } else if (key == "allocation_policy") {
            // Legacy key: every serialized spec (and so every golden
            // journal) carries it with its one value. The removed
            // values name their capping_policy / bucket_w replacement.
            if (value == "proportional") {
                FailNumeric(key, line_no, line,
                            "'proportional' was removed; use "
                            "capping_policy = fairshare");
            } else if (value == "water-fill") {
                FailNumeric(key, line_no, line,
                            "'water-fill' was removed; use bucket_w = 0");
            } else if (value != "high-bucket-first") {
                FailNumeric(key, line_no, line,
                            "must be high-bucket-first; for another split "
                            "use capping_policy = fairshare or bucket_w = 0");
            }
        } else if (key == "leaf_pull_cycle_ms") {
            spec.deployment.leaf.base.pull_cycle =
                ParsePeriodMs(key, value, line_no, line);
        } else if (key == "upper_pull_cycle_ms") {
            spec.deployment.upper.base.pull_cycle =
                ParsePeriodMs(key, value, line_no, line);
        } else if (key == "response_wait_ms") {
            // Shared by both levels: the window between issuing pulls
            // and aggregating. Deployment-mode specs shrink it together
            // with the pull cycles to run fast control loops.
            const SimTime wait = ParsePeriodMs(key, value, line_no, line);
            spec.deployment.leaf.base.response_wait = wait;
            spec.deployment.upper.base.response_wait = wait;
        } else if (key == "rpc_timeout_ms") {
            const SimTime timeout = ParsePeriodMs(key, value, line_no, line);
            spec.deployment.leaf.base.rpc_timeout = timeout;
            spec.deployment.upper.base.rpc_timeout = timeout;
        } else if (key == "bucket_w") {
            spec.deployment.leaf.bucket_size =
                ParseNonNegDouble(key, value, line_no, line);
        } else if (key == "cap_threshold") {
            const double frac = ParseNonNegDouble(key, value, line_no, line);
            spec.deployment.leaf.base.bands.cap_threshold_frac = frac;
            spec.deployment.upper.base.bands.cap_threshold_frac = frac;
        } else if (key == "cap_target") {
            const double frac = ParseNonNegDouble(key, value, line_no, line);
            spec.deployment.leaf.base.bands.cap_target_frac = frac;
            spec.deployment.upper.base.bands.cap_target_frac = frac;
        } else if (key == "uncap_threshold") {
            const double frac = ParseNonNegDouble(key, value, line_no, line);
            spec.deployment.leaf.base.bands.uncap_threshold_frac = frac;
            spec.deployment.upper.base.bands.uncap_threshold_frac = frac;
        } else if (key == "dry_run") {
            const bool dry = ParseBool(value, line_no, line);
            spec.deployment.leaf.base.dry_run = dry;
            spec.deployment.upper.base.dry_run = dry;
        } else if (key == "with_backup_controllers") {
            spec.deployment.with_backup_controllers =
                ParseBool(value, line_no, line);
        } else if (key == "capping_policy") {
            // The capping brain is fleet-wide: both levels run the same
            // policy so the judge compares like against like. Unknown
            // names fail as invalid_argument (a value error, not a
            // syntax error) naming the key and line.
            policy::PolicyKind kind = policy::PolicyKind::kThreeBand;
            if (!policy::ParsePolicyKind(value, &kind)) {
                FailNumeric(key, line_no, line,
                            "must be three_band|predictive|waterfill|"
                            "fairshare");
            }
            spec.deployment.leaf.capping_policy = kind;
            spec.deployment.upper.capping_policy = kind;
        } else {
            Fail(line_no, line, "unknown key '" + key + "'");
        }
    }
    if (!spec.deployment.leaf.base.bands.Valid()) {
        throw std::runtime_error(
            "invalid three-band thresholds: need threshold > target > uncap");
    }
    // Mirror the controller-constructor validation here so a bad spec
    // fails at parse time with the file in hand, not at fleet build.
    if (spec.deployment.leaf.base.rpc_timeout >=
        spec.deployment.leaf.base.response_wait) {
        throw std::runtime_error(
            "rpc_timeout_ms must be < response_wait_ms; got " +
            std::to_string(spec.deployment.leaf.base.rpc_timeout) + " >= " +
            std::to_string(spec.deployment.leaf.base.response_wait));
    }
    return spec;
}

FleetSpec
ParseFleetSpecString(const std::string& text)
{
    std::istringstream in(text);
    return ParseFleetSpec(in);
}

FleetSpec
LoadFleetSpec(const std::string& path)
{
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open fleet spec: " + path);
    return ParseFleetSpec(in);
}

namespace {

/** 17-significant-digit form: round-trips any double bit-exactly. */
std::string
CanonicalDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
MixToString(const ServiceMix& mix)
{
    std::string out;
    for (const auto& share : mix.shares) {
        if (!out.empty()) out += ",";
        out += workload::ServiceName(share.service);
        out += ":";
        out += CanonicalDouble(share.weight);
    }
    return out;
}

}  // namespace

void
WriteFleetSpec(std::ostream& out, const FleetSpec& spec)
{
    const auto kv = [&out](const char* key, const std::string& value) {
        out << key << " = " << value << "\n";
    };
    const char* scope = spec.scope == FleetScope::kRpp   ? "rpp"
                        : spec.scope == FleetScope::kSb ? "sb"
                                                        : "msb";
    kv("scope", scope);
    kv("servers_per_rpp", std::to_string(spec.servers_per_rpp));
    kv("rpps_per_sb", std::to_string(spec.topology.rpps_per_sb));
    kv("sbs_per_msb", std::to_string(spec.topology.sbs_per_msb));
    // Watt-denominated keys: the kw forms multiply by 1000 on parse,
    // which is not an exact inverse of dividing here.
    kv("rpp_rated_w", CanonicalDouble(spec.topology.rpp_rated));
    kv("sb_rated_w", CanonicalDouble(spec.topology.sb_rated));
    kv("msb_rated_w", CanonicalDouble(spec.topology.msb_rated));
    kv("quota_fill", CanonicalDouble(spec.topology.quota_fill));
    kv("mix", MixToString(spec.mix));
    kv("haswell_fraction", CanonicalDouble(spec.haswell_fraction));
    kv("sensorless_fraction", CanonicalDouble(spec.sensorless_fraction));
    kv("turbo", spec.turbo_enabled ? "true" : "false");
    kv("tor_switch_power_w", CanonicalDouble(spec.tor_switch_power));
    kv("diurnal_amplitude", CanonicalDouble(spec.diurnal_amplitude));
    kv("seed", std::to_string(spec.seed));
    kv("with_dynamo", spec.with_dynamo ? "true" : "false");
    kv("with_breaker_validation",
       spec.with_breaker_validation ? "true" : "false");
    kv("with_load_shedding", spec.with_load_shedding ? "true" : "false");
    // Fixed legacy line: the golden journals embed it byte for byte.
    kv("allocation_policy", "high-bucket-first");
    kv("leaf_pull_cycle_ms",
       std::to_string(spec.deployment.leaf.base.pull_cycle));
    kv("upper_pull_cycle_ms",
       std::to_string(spec.deployment.upper.base.pull_cycle));
    kv("response_wait_ms",
       std::to_string(spec.deployment.leaf.base.response_wait));
    kv("rpc_timeout_ms", std::to_string(spec.deployment.leaf.base.rpc_timeout));
    kv("bucket_w", CanonicalDouble(spec.deployment.leaf.bucket_size));
    kv("cap_threshold",
       CanonicalDouble(spec.deployment.leaf.base.bands.cap_threshold_frac));
    kv("cap_target",
       CanonicalDouble(spec.deployment.leaf.base.bands.cap_target_frac));
    kv("uncap_threshold",
       CanonicalDouble(spec.deployment.leaf.base.bands.uncap_threshold_frac));
    kv("dry_run", spec.deployment.leaf.base.dry_run ? "true" : "false");
    kv("with_backup_controllers",
       spec.deployment.with_backup_controllers ? "true" : "false");
    // Emitted only when non-default so the serialized form of every
    // pre-policy-lab spec — including the canonical text embedded in
    // committed golden journals — stays byte-identical.
    if (spec.deployment.leaf.capping_policy !=
        policy::PolicyKind::kThreeBand) {
        kv("capping_policy",
           policy::PolicyKindName(spec.deployment.leaf.capping_policy));
    }
    if (spec.gpu_fraction != 0.0) {
        kv("gpu_fraction", CanonicalDouble(spec.gpu_fraction));
    }
    if (!spec.scenario.empty()) {
        kv("scenario", spec.scenario);
    }
}

std::string
SerializeFleetSpec(const FleetSpec& spec)
{
    std::ostringstream out;
    WriteFleetSpec(out, spec);
    return out.str();
}

}  // namespace dynamo::fleet
