#ifndef STREAMLIB_PLATFORM_TUPLE_H_
#define STREAMLIB_PLATFORM_TUPLE_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/check.h"
#include "common/hash.h"

namespace streamlib::platform {

/// A single field of a tuple. The variant mirrors the value model of
/// Storm/Heron tuples restricted to the types the examples and benches need.
using Value = std::variant<std::monostate, bool, int64_t, double, std::string>;

/// Hashes a Value (used by fields-grouping to route tuples).
uint64_t HashOfValue(const Value& v, uint64_t seed = 0);

/// Renders a Value for logs/debugging.
std::string ValueToString(const Value& v);

/// The unit of data flowing through a topology: an ordered list of named-by-
/// position fields, or an epoch barrier. Ack metadata (root and edge ids)
/// travels on the engine's Message, not on the tuple.
class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<Value> values) : values_(std::move(values)) {}

  /// Builds a tuple from a braced list: Tuple::Of("word", int64_t{1}).
  template <typename... Ts>
  static Tuple Of(Ts&&... fields) {
    std::vector<Value> values;
    values.reserve(sizeof...(fields));
    (values.emplace_back(std::forward<Ts>(fields)), ...);
    return Tuple(std::move(values));
  }

  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  const Value& field(size_t i) const {
    STREAMLIB_CHECK(i < values_.size());
    return values_[i];
  }

  /// Typed accessors; abort on type mismatch (a tuple-schema bug).
  int64_t Int(size_t i) const { return Get<int64_t>(i); }
  double Double(size_t i) const { return Get<double>(i); }
  bool Bool(size_t i) const { return Get<bool>(i); }
  const std::string& Str(size_t i) const {
    const Value& v = field(i);
    STREAMLIB_CHECK_MSG(std::holds_alternative<std::string>(v),
                        "tuple field %zu is not a string", i);
    return std::get<std::string>(v);
  }

  const std::vector<Value>& values() const { return values_; }

  /// Epoch-barrier marker (Chandy-Lamport snapshot token, DESIGN.md §12):
  /// a field-less control tuple the engine routes to every downstream task.
  /// Bolts never see barriers in Execute — the engine consumes them for
  /// alignment. Epoch numbers start at 1, so 0 doubles as "not a barrier".
  static Tuple Barrier(uint64_t epoch) {
    STREAMLIB_CHECK_MSG(epoch != 0, "barrier epochs start at 1");
    Tuple t;
    t.barrier_epoch_ = epoch;
    return t;
  }
  bool IsBarrier() const { return barrier_epoch_ != 0; }
  uint64_t barrier_epoch() const { return barrier_epoch_; }

  std::string ToString() const;

 private:
  template <typename T>
  const T& Get(size_t i) const {
    const Value& v = field(i);
    STREAMLIB_CHECK_MSG(std::holds_alternative<T>(v),
                        "tuple field %zu holds a different type", i);
    return std::get<T>(v);
  }

  std::vector<Value> values_;
  uint64_t barrier_epoch_ = 0;
};

}  // namespace streamlib::platform

#endif  // STREAMLIB_PLATFORM_TUPLE_H_
