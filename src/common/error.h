// Library error type. All precondition violations and I/O failures raise
// kcc::Error; internal invariants use assertions.
//
// require(condition, parts...) is the library's one check, and it sits on
// hot paths (every union-find lookup, every overlap pair, every parsed
// token). A passing check costs one predictable branch: the message parts
// are concatenated only when the check fails, in an out-of-line cold
// function. Pass the message as parts, never as a pre-built std::string:
//
//   require(ok, "read_edge_list: non-numeric node id on line ", line_no,
//           ": '", token, "'");
#pragma once

#include <concepts>
#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <string_view>

namespace kcc {

/// Exception thrown on invalid arguments, malformed input files, and
/// violated API preconditions.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {

/// One piece of a failing check's message: text, or an integer printed as
/// std::to_string prints it. Holds a view, so it must not outlive the
/// full-expression that made it.
class MessagePart {
 public:
  MessagePart(const char* text) : text_(text) {}
  MessagePart(std::string_view text) : text_(text) {}
  template <std::signed_integral T>
  MessagePart(T value) : kind_(Kind::kSigned), signed_(value) {}
  template <std::unsigned_integral T>
  MessagePart(T value) : kind_(Kind::kUnsigned), unsigned_(value) {}
  // A char or bool would print as a number; say what is meant instead.
  MessagePart(char) = delete;
  MessagePart(bool) = delete;

  void append_to(std::string& out) const;

 private:
  enum class Kind : std::uint8_t { kText, kSigned, kUnsigned };
  Kind kind_ = Kind::kText;
  std::string_view text_;
  std::int64_t signed_ = 0;
  std::uint64_t unsigned_ = 0;
};

/// Concatenates `parts` and throws kcc::Error with the result.
[[noreturn, gnu::cold]] void throw_error(
    std::initializer_list<MessagePart> parts);

}  // namespace detail

/// Throws kcc::Error whose message is the concatenation of `parts` when
/// `condition` is false; does nothing else.
template <typename... Parts>
inline void require(bool condition, const Parts&... parts) {
  static_assert(sizeof...(Parts) > 0, "require: give the check a message");
  if (!condition) [[unlikely]] {
    detail::throw_error({detail::MessagePart(parts)...});
  }
}

}  // namespace kcc
