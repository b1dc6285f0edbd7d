//===- support/Status.cpp - Recoverable error taxonomy --------------------===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
//===----------------------------------------------------------------------===//

#include "support/Status.h"

#include "support/Span.h"

using namespace vea;

Status Status::error(StatusCode Code, std::string Message) {
  Status S;
  S.Code = Code;
  S.Message = std::move(Message);
  if (FlightRecorder::armed())
    FlightRecorder::instance().noteStatus(statusCodeName(Code), S.Message);
  return S;
}

const char *vea::statusCodeName(StatusCode Code) {
  switch (Code) {
  case StatusCode::Ok:
    return "ok";
  case StatusCode::InvalidArgument:
    return "invalid argument";
  case StatusCode::MalformedProgram:
    return "malformed program";
  case StatusCode::MalformedImage:
    return "malformed image";
  case StatusCode::CorruptBlob:
    return "corrupt blob";
  case StatusCode::CorruptOffsetTable:
    return "corrupt offset table";
  case StatusCode::LayoutError:
    return "layout error";
  case StatusCode::EncodingError:
    return "encoding error";
  case StatusCode::ResourceExhausted:
    return "resource exhausted";
  case StatusCode::RuntimeFault:
    return "runtime fault";
  case StatusCode::InternalError:
    return "internal error";
  }
  return "unknown";
}

std::string Status::toString() const {
  if (ok())
    return "ok";
  return std::string(statusCodeName(Code)) + ": " + Message;
}
