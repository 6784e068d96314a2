/**
 * @file
 * The RPC payload: a closed variant over the `dynamo::api` messages.
 *
 * Every request and response that crosses a Transport is one of the
 * api structs, so the payload is a `std::variant` over exactly those:
 * a call carries its message inline (no heap box per request or
 * response), handlers dispatch with `std::get_if`, and a non-api type
 * is a compile error at the call site rather than a run-time refusal
 * in the wire layer. The header is all the rpc layer needs from core:
 * the api structs are plain data and link against nothing.
 */
#ifndef DYNAMO_RPC_PAYLOAD_H_
#define DYNAMO_RPC_PAYLOAD_H_

#include <variant>

#include "core/api.h"

namespace dynamo::rpc {

/**
 * One request or response. Alternatives are listed in wire
 * `MessageType` order (tag = index + 1), which is how the DYNW codec
 * classifies a payload; append only, never reorder. The first
 * alternative makes a default-constructed Payload a PowerReadRequest.
 */
using Payload =
    std::variant<api::PowerReadRequest, api::PowerReadResult,
                 api::CapRequest, api::CapResult, api::ContractUpdate,
                 api::TuneEstimate, api::HealthProbe, api::HealthResult,
                 api::StatusRequest, api::StatusResult>;

}  // namespace dynamo::rpc

#endif  // DYNAMO_RPC_PAYLOAD_H_
