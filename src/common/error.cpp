#include "common/error.h"

namespace kcc::detail {

void MessagePart::append_to(std::string& out) const {
  switch (kind_) {
    case Kind::kText:
      out += text_;
      break;
    case Kind::kSigned:
      out += std::to_string(signed_);
      break;
    case Kind::kUnsigned:
      out += std::to_string(unsigned_);
      break;
  }
}

void throw_error(std::initializer_list<MessagePart> parts) {
  std::string message;
  for (const MessagePart& part : parts) part.append_to(message);
  throw Error(message);
}

}  // namespace kcc::detail
