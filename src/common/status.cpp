#include "common/status.h"

namespace idf {

std::string_view StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "InvalidArgument";
    case StatusCode::kNotFound: return "NotFound";
    case StatusCode::kResourceExhausted: return "ResourceExhausted";
    case StatusCode::kFailedPrecondition: return "FailedPrecondition";
    case StatusCode::kUnavailable: return "Unavailable";
    case StatusCode::kInternal: return "Internal";
    case StatusCode::kCancelled: return "Cancelled";
    case StatusCode::kDeadlineExceeded: return "DeadlineExceeded";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out(StatusCodeName(code_));
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

namespace internal {

void CheckFailed(const char* file, int line, const char* expr,
                 const std::string& extra) {
  std::fprintf(stderr, "IDF_CHECK failed at %s:%d: %s%s%s\n", file, line, expr,
               extra.empty() ? "" : " — ", extra.c_str());
  std::abort();
}

}  // namespace internal
}  // namespace idf
