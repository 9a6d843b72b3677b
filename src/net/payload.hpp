// PayloadRef: single-allocation type-erased immutable payload handle.
//
// Messages used to carry shared_ptr<const std::any>: two allocations per
// payload (control block + any's heap box for anything bigger than a
// pointer) and three indirections per access. PayloadRef folds refcount,
// type tag, and value into one heap block; copying a Message during gossip
// relay is a single increment. Type safety is preserved with an
// RTTI-free per-type tag, checked by assert in debug builds (the sanitizer
// legs of tools/check.sh run with asserts on).
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>

namespace dlt::net {

namespace detail {

/// One static byte per distinct T; its address is the type's identity.
template <typename T>
inline const void* type_tag() {
  static const char tag = 0;
  return &tag;
}

}  // namespace detail

class PayloadRef {
 public:
  PayloadRef() = default;

  template <typename T>
  static PayloadRef make(T value) {
    PayloadRef p;
    p.ctrl_ = new Typed<T>(std::move(value));
    return p;
  }

  PayloadRef(const PayloadRef& other) : ctrl_(other.ctrl_) {
    if (ctrl_) ++ctrl_->refs;
  }
  PayloadRef(PayloadRef&& other) noexcept
      : ctrl_(std::exchange(other.ctrl_, nullptr)) {}

  PayloadRef& operator=(PayloadRef other) noexcept {
    std::swap(ctrl_, other.ctrl_);
    return *this;
  }

  ~PayloadRef() { release(); }

  explicit operator bool() const { return ctrl_ != nullptr; }

  /// Typed access; T must match the type passed to make().
  template <typename T>
  const T& as() const {
    assert(ctrl_ && "empty payload");
    assert(ctrl_->type == detail::type_tag<T>() && "payload type mismatch");
    return static_cast<const Typed<T>*>(ctrl_)->value;
  }

 private:
  struct Ctrl {
    std::uint32_t refs = 1;
    void (*destroy)(Ctrl*) = nullptr;
    const void* type = nullptr;
  };
  template <typename T>
  struct Typed : Ctrl {
    explicit Typed(T v) : value(std::move(v)) {
      this->destroy = [](Ctrl* c) { delete static_cast<Typed*>(c); };
      this->type = detail::type_tag<T>();
    }
    const T value;
  };

  void release() {
    if (ctrl_ && --ctrl_->refs == 0)
      ctrl_->destroy(ctrl_);
    ctrl_ = nullptr;
  }

  Ctrl* ctrl_ = nullptr;
};

}  // namespace dlt::net
