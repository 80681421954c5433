#include "soc/plic.hpp"

namespace titan::soc {

void Plic::raise(unsigned source) {
  if (source > 0 && source < pending_.size()) {
    pending_[source] = true;
  }
  update();
}

void Plic::lower(unsigned source) {
  if (source > 0 && source < pending_.size()) {
    pending_[source] = false;
  }
  update();
}

unsigned Plic::pending_source() const {
  for (unsigned source = 1; source < pending_.size(); ++source) {
    if (pending_[source] && enabled_[source] && !in_service_[source]) {
      return source;
    }
  }
  return 0;
}

unsigned Plic::claim() {
  const unsigned source = pending_source();
  if (source != 0) {
    in_service_[source] = true;
    pending_[source] = false;
    ++claims_;
    update();
  }
  return source;
}

void Plic::complete(unsigned source) {
  if (source > 0 && source < in_service_.size()) {
    in_service_[source] = false;
  }
  update();
}

void Plic::enable(unsigned source, bool on) {
  if (source > 0 && source < enabled_.size()) {
    enabled_[source] = on;
  }
  update();
}

std::uint64_t Plic::read(Addr addr, unsigned size) {
  (void)size;
  switch (addr & 0xFF) {
    case kPendingOffset: {
      std::uint64_t bits = 0;
      for (unsigned source = 1; source < pending_.size() && source < 64; ++source) {
        if (pending_[source]) {
          bits |= std::uint64_t{1} << source;
        }
      }
      return bits;
    }
    case kEnableOffset: {
      std::uint64_t bits = 0;
      for (unsigned source = 1; source < enabled_.size() && source < 64; ++source) {
        if (enabled_[source]) {
          bits |= std::uint64_t{1} << source;
        }
      }
      return bits;
    }
    case kClaimOffset:
      return claim();
    default:
      return 0;
  }
}

bool Plic::write(Addr addr, unsigned size, std::uint64_t value) {
  (void)size;
  switch (addr & 0xFF) {
    case kEnableOffset:
      for (unsigned source = 1; source < enabled_.size() && source < 64; ++source) {
        enabled_[source] = ((value >> source) & 1) != 0;
      }
      update();
      break;
    case kClaimOffset:
      complete(static_cast<unsigned>(value));
      break;
    default:
      break;
  }
  return true;
}

}  // namespace titan::soc
